//! `report ledger-diff` end to end: the committed ledger against copies
//! of itself with one cell moved, through the binary's exit status.

use std::path::PathBuf;
use std::process::{Command, Output};

use vapor_bench::ledger::{committed, Ledger};

/// Write `ledger` under the test's tmp dir as `name`.
fn write(name: &str, ledger: &Ledger) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, ledger.to_string()).unwrap();
    path
}

fn report(args: &[&std::ffi::OsStr]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_report"))
        .arg("ledger-diff")
        .args(args)
        .output()
        .unwrap()
}

/// The committed ledger with row `i` of `[full]` (an optimizing-flow
/// cell) changed by `f`.
fn edited(i: usize, f: impl FnOnce(&mut vapor_bench::ledger::Row)) -> Ledger {
    let mut l = committed().clone();
    let (_, rows) = l.sections.iter_mut().find(|(s, _)| s == "full").unwrap();
    f(&mut rows[i]);
    l
}

#[test]
fn ledger_diff_exits_by_its_verdict() {
    let pid = std::process::id();
    let old = write(&format!("ledger-diff-old-{pid}.txt"), committed());

    let fell = write(
        &format!("ledger-diff-fell-{pid}.txt"),
        &edited(0, |r| r.cycles -= 1),
    );
    let out = report(&[old.as_os_str(), fell.as_os_str()]);
    let text = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(0), "{text}");
    assert!(text.starts_with("1 moved (0 rose)"), "{text}");

    let rose = write(
        &format!("ledger-diff-rose-{pid}.txt"),
        &edited(0, |r| r.cycles += 1),
    );
    let out = report(&[old.as_os_str(), rose.as_os_str()]);
    assert_eq!(out.status.code(), Some(1));

    let out = report(&[old.as_os_str()]);
    assert_eq!(out.status.code(), Some(2));
    for p in [old, fell, rose] {
        std::fs::remove_file(p).unwrap();
    }
}
