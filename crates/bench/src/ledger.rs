//! The cycle ledger, `tests/golden/ledger.txt`: one row per cell of the
//! paper's evaluation table (kernel × target × flow × VL × placement),
//! each checked against the IR interpreter by `tests/matrix.rs`, which
//! writes it. Sections: `[test]` (`Scale::Test`), `[full]` (the repo
//! benchmark's `hot_loops` cells) and `[paper]` ([`paper_cells`]).
//! This module owns the format: the typed [`Row`], its printer and
//! parser, the keyed [`diff`] of two ledgers, and the cycle review of a
//! codegen change, [`cycle_diff`].

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::str::FromStr;
use std::sync::OnceLock;

use vapor_core::{AllocPolicy, CompileConfig, Flow};
use vapor_jit::Pipeline;
use vapor_kernels::suite;
use vapor_targets::{TargetDesc, TargetKind, VLA_TEST_BITS};

/// The committed ledger's text.
pub const TEXT: &str = include_str!("../../../tests/golden/ledger.txt");

/// The committed ledger, parsed once.
///
/// # Panics
/// Panics when the committed text does not parse.
pub fn committed() -> &'static Ledger {
    static LEDGER: OnceLock<Ledger> = OnceLock::new();
    LEDGER.get_or_init(|| TEXT.parse().unwrap_or_else(|e| panic!("ledger.txt: {e}")))
}

/// 64-bit FNV-1a, the ledger's fingerprint of a disassembly.
pub fn fnv64(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A target's short name in the ledger and on the `report` command line.
pub fn alias(kind: TargetKind) -> &'static str {
    match kind {
        TargetKind::Sse => "sse",
        TargetKind::Altivec => "altivec",
        TargetKind::Neon64 => "neon64",
        TargetKind::Avx => "avx",
        TargetKind::ScalarOnly => "scalaronly",
        TargetKind::Sve => "sve",
        TargetKind::Rvv => "rvv",
    }
}

/// The target whose [`alias`] is `name`.
pub fn target_named(name: &str) -> Option<TargetKind> {
    TargetKind::ALL.into_iter().find(|&k| alias(k) == name)
}

/// The flow whose `Display` is `name`.
pub fn flow_named(name: &str) -> Option<Flow> {
    Flow::ALL.into_iter().find(|f| f.to_string() == name)
}

/// The vector lengths a target runs at: its own width, or every tested
/// runtime VL of a VLA family.
pub fn vls(target: &TargetDesc) -> Vec<usize> {
    if target.vla {
        VLA_TEST_BITS.to_vec()
    } else {
        vec![target.vs * 8]
    }
}

/// The first of [`vls`]: the VL of a fixed-width target, 128 on a VLA
/// family.
pub fn first_vl(kind: TargetKind) -> usize {
    vls(&vapor_targets::target(kind))[0]
}

/// A cell's placement column: `aligned` or `mis<k>`, then `+<switch>`
/// for each non-default [`CompileConfig`] switch.
pub fn placement(policy: AllocPolicy, cfg: &CompileConfig) -> String {
    let CompileConfig {
        no_alignment_opts,
        no_realign_reuse,
    } = *cfg;
    let switches = [
        (no_alignment_opts, "+no-alignment-opts"),
        (no_realign_reuse, "+no-realign-reuse"),
    ];
    let base = match policy {
        AllocPolicy::Aligned => "aligned".to_owned(),
        AllocPolicy::Misaligned(k) => format!("mis{k}"),
    };
    switches
        .iter()
        .filter(|(on, _)| *on)
        .fold(base, |p, (_, s)| p + s)
}

/// The §V-A(b) ablation's config: no offline alignment optimizations.
pub const NO_ALIGNMENT_OPTS: CompileConfig = CompileConfig {
    no_alignment_opts: true,
    no_realign_reuse: false,
};

/// The §III-A ablation's config: no optimized realignment.
pub const NO_REALIGN_REUSE: CompileConfig = CompileConfig {
    no_alignment_opts: false,
    no_realign_reuse: true,
};

/// The kernels of the §III-A optimized-realignment ablation.
pub const REALIGN_KERNELS: [&str; 4] = ["sfir_s16", "sfir_fp", "convolve_s32", "jacobi_fp"];

/// The kernels of the scalarization claim (§III-C(d)) on the scalar-only
/// target.
pub const SCALARIZED_KERNELS: [&str; 5] = [
    "dscal_fp",
    "saxpy_fp",
    "dissolve_fp",
    "sfir_fp",
    "convolve_s32",
];

/// One aligned, Full-scale cell of the `[paper]` section, at the
/// target's first VL.
#[derive(Debug, Clone, PartialEq)]
pub struct PaperCell {
    pub kernel: &'static str,
    pub target: TargetKind,
    pub flow: Flow,
    pub cfg: CompileConfig,
}

/// The Full-scale cells the figures and the paper claims read that
/// `[full]` (the optimizing split flow on the six vector targets) lacks,
/// per suite kernel in suite order.
pub fn paper_cells() -> Vec<PaperCell> {
    use Flow::*;
    use TargetKind::*;
    let mut cells = Vec::new();
    for spec in suite() {
        let mut add = |target, flow, cfg: &CompileConfig| {
            let (kernel, cfg) = (spec.name, cfg.clone());
            cells.push(PaperCell {
                kernel,
                target,
                flow,
                cfg,
            });
        };
        let default = &CompileConfig::default();
        // Figure 5 and the §V-A(b) ablation's baseline.
        for target in [Sse, Altivec] {
            for flow in [SplitVectorNaive, SplitScalarNaive, NativeScalar] {
                add(target, flow, default);
            }
        }
        // Figure 6 and Table 3.
        for target in [Sse, Altivec, Neon64] {
            add(target, NativeVector, default);
        }
        if spec.table3 {
            add(Avx, NativeVector, default);
        }
        if spec.expect_vectorized {
            add(Sse, SplitVectorNaive, &NO_ALIGNMENT_OPTS);
            add(Altivec, SplitVectorNaive, &NO_ALIGNMENT_OPTS);
        }
        if REALIGN_KERNELS.contains(&spec.name) {
            add(Altivec, SplitVectorOpt, &NO_REALIGN_REUSE);
        }
        // The VLA gains' scalar baseline.
        add(Sve, SplitScalarOpt, default);
        add(Rvv, SplitScalarOpt, default);
        // The claims: scalarization on a non-SIMD target, and the
        // distributed solvers against their scalar code.
        if SCALARIZED_KERNELS.contains(&spec.name) {
            add(ScalarOnly, SplitVectorOpt, default);
            add(ScalarOnly, NativeScalar, default);
        }
        if ["lu_fp", "ludcmp_fp"].contains(&spec.name) {
            add(Sse, SplitScalarOpt, default);
        }
    }
    cells
}

/// One ledger row: a cell's key, its run and its compile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    pub kernel: String,
    pub target: TargetKind,
    pub flow: Flow,
    pub vl: usize,
    /// See [`placement`].
    pub placement: String,
    pub cycles: u64,
    /// Dynamic VM instructions.
    pub vm_insts: u64,
    /// Encoded bytecode bytes.
    pub bytes: usize,
    /// Machine instructions the JIT emitted.
    pub insts: usize,
    pub sregs: u32,
    pub vregs: u32,
    /// Decoded steps of the program the cell ran.
    pub steps: usize,
    /// Fusions: load_bin_store, load_bin_store_vl, load_bin_bin,
    /// load_bin, bin_store, latch.
    pub fuse: [u32; 6],
    /// Summed static step costs at the cell's vector width.
    pub cost: u64,
    /// Groups: vector, direct scalar, tail scalar.
    pub groups: [usize; 3],
    pub helpers: usize,
    /// Guards: folded, runtime.
    pub guards: [usize; 2],
    /// Loops: vectorized, rejected.
    pub loops: [usize; 2],
    /// [`fnv64`] of the disassembly.
    pub fnv: u64,
}

impl Row {
    /// The cell's key: the first five columns.
    pub fn key(&self) -> String {
        let target = alias(self.target);
        format!(
            "{} {target} {} {} {}",
            self.kernel, self.flow, self.vl, self.placement
        )
    }
}

/// `a/b/c`.
fn slash<T: ToString>(vals: &[T]) -> String {
    vals.iter().map(T::to_string).collect::<Vec<_>>().join("/")
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {} {} {} {} {} {} {} {} {} {} {} {} {:016x}",
            self.key(),
            self.cycles,
            self.vm_insts,
            self.bytes,
            self.insts,
            self.sregs,
            self.vregs,
            self.steps,
            slash(&self.fuse),
            self.cost,
            slash(&self.groups),
            self.helpers,
            slash(&self.guards),
            slash(&self.loops),
            self.fnv,
        )
    }
}

fn num<T: FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad number {s:?}"))
}

fn nums<T: FromStr, const N: usize>(s: &str) -> Result<[T; N], String> {
    let vals: Vec<T> = s.split('/').map(num).collect::<Result<_, _>>()?;
    vals.try_into()
        .map_err(|_| format!("{s:?}: not {N} values"))
}

impl FromStr for Row {
    type Err = String;

    fn from_str(line: &str) -> Result<Row, String> {
        let mut cols = line.split_whitespace();
        let mut col = || cols.next().ok_or_else(|| "too few columns".to_owned());
        let (kernel, target, flow) = (col()?, col()?, col()?);
        let row = Row {
            kernel: kernel.to_owned(),
            target: target_named(target).ok_or_else(|| format!("unknown target {target:?}"))?,
            flow: flow_named(flow).ok_or_else(|| format!("unknown flow {flow:?}"))?,
            vl: num(col()?)?,
            placement: col()?.to_owned(),
            cycles: num(col()?)?,
            vm_insts: num(col()?)?,
            bytes: num(col()?)?,
            insts: num(col()?)?,
            sregs: num(col()?)?,
            vregs: num(col()?)?,
            steps: num(col()?)?,
            fuse: nums(col()?)?,
            cost: num(col()?)?,
            groups: nums(col()?)?,
            helpers: num(col()?)?,
            guards: nums(col()?)?,
            loops: nums(col()?)?,
            fnv: u64::from_str_radix(col()?, 16).map_err(|e| format!("bad fnv: {e}"))?,
        };
        match cols.next() {
            None => Ok(row),
            Some(extra) => Err(format!("extra column {extra:?}")),
        }
    }
}

/// A whole ledger: its `#` header lines and its sections in file order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ledger {
    /// The `#` lines before the first section, newline-terminated.
    pub header: String,
    /// `(name, rows)` per `[name]` section.
    pub sections: Vec<(String, Vec<Row>)>,
}

impl Ledger {
    /// The rows of section `name` (empty when it is absent).
    pub fn section(&self, name: &str) -> &[Row] {
        let found = self.sections.iter().find(|(n, _)| n == name);
        found.map_or(&[], |(_, rows)| rows)
    }

    /// Every row with its section's name, in file order.
    pub fn rows(&self) -> impl Iterator<Item = (&str, &Row)> {
        let sections = self.sections.iter();
        sections.flat_map(|(s, rows)| rows.iter().map(move |r| (s.as_str(), r)))
    }

    /// The Full-scale row (`[full]` or `[paper]`) of an aligned cell at
    /// the target's first VL.
    pub fn full(
        &self,
        kernel: &str,
        target: TargetKind,
        flow: Flow,
        cfg: &CompileConfig,
    ) -> Option<&Row> {
        let (vl, placement) = (first_vl(target), placement(AllocPolicy::Aligned, cfg));
        let mut rows = self.section("full").iter().chain(self.section("paper"));
        rows.find(|r| {
            (r.kernel == kernel && r.target == target && r.flow == flow)
                && (r.vl == vl && r.placement == placement)
        })
    }
}

impl fmt::Display for Ledger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.header)?;
        for (name, rows) in &self.sections {
            writeln!(f, "[{name}]")?;
            for r in rows {
                writeln!(f, "{r}")?;
            }
        }
        Ok(())
    }
}

impl FromStr for Ledger {
    type Err = String;

    fn from_str(text: &str) -> Result<Ledger, String> {
        let mut ledger = Ledger::default();
        for (i, line) in text.lines().enumerate() {
            let err = |e: String| format!("line {}: {e}", i + 1);
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                ledger.sections.push((name.to_owned(), Vec::new()));
            } else if line.starts_with('#') && ledger.sections.is_empty() {
                ledger.header.push_str(line);
                ledger.header.push('\n');
            } else {
                let (_, rows) = ledger
                    .sections
                    .last_mut()
                    .ok_or_else(|| err("a row before the first section".into()))?;
                rows.push(line.parse().map_err(err)?);
            }
        }
        Ok(ledger)
    }
}

/// Every row of `l` by section and key.
fn index(l: &Ledger) -> HashMap<(&str, String), &Row> {
    l.rows().map(|(s, r)| ((s, r.key()), r)).collect()
}

/// The cells `new` moved, added and removed against `old`, matched by
/// section and key: the three counts, then the first rows of each.
pub fn diff(old: &Ledger, new: &Ledger) -> String {
    let (was, now) = (index(old), index(new));
    let (mut moved, mut added) = (Vec::new(), Vec::new());
    for (s, r) in new.rows() {
        match was.get(&(s, r.key())) {
            None => added.push(format!("[{s}] + {r}")),
            Some(&w) if w != r => moved.push(format!("[{s}] - {w}\n  [{s}] + {r}")),
            Some(_) => {}
        }
    }
    let removed: Vec<String> = old
        .rows()
        .filter(|&(s, r)| !now.contains_key(&(s, r.key())))
        .map(|(s, r)| format!("[{s}] - {r}"))
        .collect();
    let (m, a, r) = (moved.len(), added.len(), removed.len());
    let mut out = format!("{m} moved, {a} added, {r} removed");
    for line in [moved, added, removed]
        .iter()
        .flat_map(|l| l.iter().take(10))
    {
        out += "\n  ";
        out += line;
    }
    out
}

/// `old → new (±x.x %)`.
fn change(old: u64, new: u64) -> String {
    let pct = 100.0 * (new as f64 - old as f64) / old.max(1) as f64;
    format!("{old} → {new} ({pct:+.1} %)")
}

/// The cycle review of a ledger change, as `report ledger-diff` prints
/// it.
#[derive(Debug, Clone, PartialEq)]
pub struct CycleDiff {
    /// The report: counts, the moved cells grouped by flow × target with
    /// old → new cycles, the added and removed cells, and per-flow
    /// cycle totals.
    pub text: String,
    /// Cells, matched by section and key, whose cycles rose.
    pub rose: usize,
    /// `naive-jit` cells that moved, were added or were removed.
    pub naive_changed: usize,
}

impl CycleDiff {
    /// Whether the change passes: no cell's cycles rose and no
    /// `naive-jit` cell changed.
    pub fn ok(&self) -> bool {
        self.rose == 0 && self.naive_changed == 0
    }
}

/// Review `new` against `old` cell by cell (matched by section and
/// key). A cell moved when any of its columns differ.
pub fn cycle_diff(old: &Ledger, new: &Ledger) -> CycleDiff {
    let (was, now) = (index(old), index(new));
    let naive = |r: &Row| r.flow.pipeline() == Pipeline::NaiveJit;
    let group = |r: &Row| {
        let f = Flow::ALL.iter().position(|&f| f == r.flow);
        let t = TargetKind::ALL.iter().position(|&t| t == r.target);
        (f, t)
    };
    let mut moved: BTreeMap<_, Vec<(&str, &Row, &Row)>> = BTreeMap::new();
    let (mut added, mut rose, mut naive_changed) = (Vec::new(), 0, 0);
    for (s, r) in new.rows() {
        match was.get(&(s, r.key())) {
            None => added.push(format!("[{s}] + {r}")),
            Some(&w) if w != r => {
                rose += usize::from(r.cycles > w.cycles);
                moved.entry(group(r)).or_default().push((s, w, r));
            }
            Some(_) => continue,
        }
        naive_changed += usize::from(naive(r));
    }
    let removed: Vec<String> = old
        .rows()
        .filter(|&(s, r)| !now.contains_key(&(s, r.key())))
        .inspect(|(_, r)| naive_changed += usize::from(naive(r)))
        .map(|(s, r)| format!("[{s}] - {r}"))
        .collect();
    let n_moved: usize = moved.values().map(Vec::len).sum();
    let mut text = format!(
        "{n_moved} moved ({rose} rose), {} added, {} removed; {naive_changed} naive-jit cells changed\n",
        added.len(),
        removed.len()
    );
    for cells in moved.values() {
        let (_, _, first) = cells[0];
        let sum = |pick: fn(&(&str, &Row, &Row)) -> u64| cells.iter().map(pick).sum::<u64>();
        let (o, n) = (sum(|c| c.1.cycles), sum(|c| c.2.cycles));
        let (flow, target) = (first.flow, alias(first.target));
        text += &format!(
            "{flow} × {target}: {} cells, {}\n",
            cells.len(),
            change(o, n)
        );
        for (s, w, r) in cells {
            let (k, vl, p) = (&r.kernel, r.vl, &r.placement);
            text += &format!("  [{s}] {k} {vl} {p}: {}\n", change(w.cycles, r.cycles));
        }
    }
    for line in added.iter().chain(&removed) {
        text += line;
        text += "\n";
    }
    text += "per-flow cycle totals, every cell:\n";
    for flow in Flow::ALL {
        let total = |l: &Ledger| -> u64 {
            let rows = l.rows().filter(|(_, r)| r.flow == flow);
            rows.map(|(_, r)| r.cycles).sum()
        };
        text += &format!("  {flow}: {}\n", change(total(old), total(new)));
    }
    CycleDiff {
        text,
        rose,
        naive_changed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_committed_ledger_round_trips() {
        assert_eq!(committed().to_string(), TEXT);
    }

    /// A small ledger: the first `n` rows of `[full]`.
    fn sample(n: usize) -> Ledger {
        let rows = committed().section("full")[..n].to_vec();
        Ledger {
            header: "# sample\n".into(),
            sections: vec![("full".into(), rows)],
        }
    }

    #[test]
    fn diff_reports_an_appended_row_as_added() {
        let (old, new) = (sample(3), sample(4));
        let row = &new.sections[0].1[3];
        let added = format!("0 moved, 1 added, 0 removed\n  [full] + {row}");
        assert_eq!(diff(&old, &new), added);
        let removed = format!("0 moved, 0 added, 1 removed\n  [full] - {row}");
        assert_eq!(diff(&new, &old), removed);
    }

    #[test]
    fn diff_reports_an_inserted_row_alone() {
        let old = sample(4);
        let mut new = old.clone();
        let rows = &mut new.sections[0].1;
        let mut inserted = rows[1].clone();
        inserted.kernel = "inserted".into();
        rows.insert(1, inserted.clone());
        rows[3].cycles += 1;
        let (was, now) = (&old.sections[0].1[2], rows[3].clone());
        let want = format!(
            "1 moved, 1 added, 0 removed\n  [full] - {was}\n  [full] + {now}\n  [full] + {inserted}"
        );
        assert_eq!(diff(&old, &new), want);
    }

    #[test]
    fn cycle_diff_passes_a_fall_and_fails_a_rise_or_a_naive_change() {
        let old = sample(4);
        assert_eq!(
            cycle_diff(&old, &old).text.lines().next().unwrap(),
            "0 moved (0 rose), 0 added, 0 removed; 0 naive-jit cells changed"
        );
        let mut new = old.clone();
        let rows = &mut new.sections[0].1;
        rows[1].cycles -= 10;
        rows[2].insts += 1;
        let fell = cycle_diff(&old, &new);
        assert!(fell.ok(), "{}", fell.text);
        assert!(fell.text.starts_with("2 moved (0 rose)"), "{}", fell.text);
        let (w, r) = (&old.sections[0].1[1], &new.sections[0].1[1]);
        let line = format!(
            "  [full] {} {} {}: {} → {} (",
            r.kernel, r.vl, r.placement, w.cycles, r.cycles
        );
        assert!(fell.text.contains(&line), "{}", fell.text);

        new.sections[0].1[3].cycles += 1;
        let rose = cycle_diff(&old, &new);
        assert_eq!((rose.rose, rose.ok()), (1, false));

        let mut naive = old.clone();
        naive.sections[0].1[0].flow = Flow::SplitVectorNaive;
        let mut changed = naive.clone();
        changed.sections[0].1[0].fnv ^= 1;
        let d = cycle_diff(&naive, &changed);
        assert_eq!((d.rose, d.naive_changed, d.ok()), (0, 1, false));
        // A naive cell that disappears is a change too.
        changed.sections[0].1.remove(0);
        assert_eq!(cycle_diff(&naive, &changed).naive_changed, 1);
    }
}
