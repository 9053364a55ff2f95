//! The persistent artifact tier: an on-disk, content-addressed store of
//! encoded offline artifacts.
//!
//! The paper's split model compiles *once* offline and serves many
//! online consumers; the in-memory engine cache realizes that within one
//! process. This tier extends it across processes and restarts: the
//! encoded bytecode (the exact [`vapor_bytecode::encode_module`] bytes —
//! the interoperability boundary artifact) is written under a filename
//! derived from the compile key's structural fingerprint, and a warm
//! process that misses its in-memory caches loads the artifact and runs
//! only the online stage instead of the whole pipeline. A simulated fleet pointing many engines at one store
//! directory shares offline compiles the same way.
//!
//! Every artifact is framed (magic, version, length) and checksummed
//! (128-bit FNV-1a over the payload), so a truncated or bit-flipped
//! file is *rejected* — the engine falls back to a full compile and
//! rewrites the entry — rather than decoded into a wrong program.

use std::fmt;
use std::fs;
use std::hash::Hasher;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// Magic bytes at the start of every stored artifact (`"VART"`).
pub const ARTIFACT_MAGIC: [u8; 4] = *b"VART";
/// Artifact container format version.
pub const ARTIFACT_VERSION: u8 = 1;
/// Filename extension of stored artifacts.
pub const ARTIFACT_EXT: &str = "vsart";

const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV_PRIME: u128 = 0x0000000001000000000000000000013b;

/// 128-bit FNV-1a over bytes: the artifact checksum (collision odds are
/// negligible at fleet scale).
pub(crate) fn fnv1a_128(bytes: &[u8]) -> u128 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u128;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The same 128-bit FNV-1a as a [`Hasher`], for the engine's structural
/// cache keys: `#[derive(Hash)]` walks a kernel or a target field by
/// field into it, with no allocation. The symbol is a 64-bit word, not a
/// byte — one multiply per field — so the state is portable across
/// endianness and stable across processes (artifact file names depend
/// on it). Byte strings mix their length first, then zero-padded words.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv128(u128);

impl Default for Fnv128 {
    fn default() -> Fnv128 {
        Fnv128(FNV_OFFSET)
    }
}

impl Fnv128 {
    fn mix(&mut self, word: u64) {
        self.0 = (self.0 ^ u128::from(word)).wrapping_mul(FNV_PRIME);
    }

    /// The full 128-bit state.
    pub(crate) fn finish128(&self) -> u128 {
        self.0
    }
}

impl Hasher for Fnv128 {
    fn write(&mut self, bytes: &[u8]) {
        self.mix(bytes.len() as u64);
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.mix(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(w));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.mix(i.into());
    }

    fn write_u32(&mut self, i: u32) {
        self.mix(i.into());
    }

    fn write_u64(&mut self, i: u64) {
        self.mix(i);
    }

    fn write_u128(&mut self, i: u128) {
        self.mix(i as u64);
        self.mix((i >> 64) as u64);
    }

    fn write_usize(&mut self, i: usize) {
        self.mix(i as u64);
    }

    fn finish(&self) -> u64 {
        (self.0 >> 64) as u64
    }
}

/// Why a present artifact was rejected (an absent artifact is not an
/// error — it is a plain miss).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArtifactError(pub String);

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "artifact rejected: {}", self.0)
    }
}

impl std::error::Error for ArtifactError {}

/// An on-disk store of encoded offline artifacts, keyed by the engine's
/// 128-bit compile-key hash. Cheap to share (`&ArtifactStore` is `Send +
/// Sync`); concurrent writers of the same key are safe (writes go
/// through a per-process temp file + atomic rename, and every writer
/// writes identical bytes for a given key by construction).
#[derive(Debug)]
pub struct ArtifactStore {
    dir: PathBuf,
}

impl ArtifactStore {
    /// Open (creating if needed) a store rooted at `dir`.
    ///
    /// # Errors
    /// Propagates the I/O error if the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<ArtifactStore> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(ArtifactStore { dir })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The on-disk path of an artifact id (present or not).
    pub fn path_for(&self, id: u128) -> PathBuf {
        self.dir.join(format!("{id:032x}.{ARTIFACT_EXT}"))
    }

    /// Persist `payload` (encoded bytecode) under `id`. Best-effort
    /// atomic: the bytes are written to a per-process temp file and
    /// renamed into place, so a reader never observes a half-written
    /// artifact under the final name.
    ///
    /// # Errors
    /// Propagates I/O errors (callers usually treat them as non-fatal:
    /// losing an artifact only costs a future recompile).
    pub fn save(&self, id: u128, payload: &[u8]) -> io::Result<()> {
        let tmp = self
            .dir
            .join(format!("{id:032x}.tmp.{}", std::process::id()));
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&ARTIFACT_MAGIC)?;
            f.write_all(&[ARTIFACT_VERSION])?;
            f.write_all(&(payload.len() as u64).to_le_bytes())?;
            f.write_all(payload)?;
            f.write_all(&fnv1a_128(payload).to_le_bytes())?;
            f.sync_all()?;
        }
        fs::rename(&tmp, self.path_for(id))
    }

    /// Load the payload stored under `id`.
    ///
    /// Returns `Ok(None)` when no artifact exists — an ordinary miss.
    ///
    /// # Errors
    /// Returns [`ArtifactError`] when a file *is* present but fails
    /// validation (bad magic/version, truncation, checksum mismatch):
    /// the caller must treat the artifact as unusable, not as data.
    pub fn load(&self, id: u128) -> Result<Option<Vec<u8>>, ArtifactError> {
        let path = self.path_for(id);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(ArtifactError(format!("{}: {e}", path.display()))),
        };
        let fail = |msg: &str| Err(ArtifactError(format!("{}: {msg}", path.display())));
        let header = 4 + 1 + 8;
        if bytes.len() < header + 16 {
            return fail("truncated header");
        }
        if bytes[..4] != ARTIFACT_MAGIC {
            return fail("bad magic");
        }
        if bytes[4] != ARTIFACT_VERSION {
            return fail("unsupported version");
        }
        // The length field is untrusted: bound it by checked arithmetic
        // before it is used as an offset.
        let len = u64::from_le_bytes(bytes[5..13].try_into().expect("8 bytes"));
        let len = match usize::try_from(len) {
            Ok(len) if len.checked_add(header + 16) == Some(bytes.len()) => len,
            _ => return fail("length mismatch (truncated or padded)"),
        };
        let payload = &bytes[header..header + len];
        let want = u128::from_le_bytes(bytes[header + len..].try_into().expect("16 bytes"));
        if fnv1a_128(payload) != want {
            return fail("checksum mismatch");
        }
        Ok(Some(payload.to_vec()))
    }

    /// Number of artifacts currently stored.
    ///
    /// # Panics
    /// Panics if the store directory cannot be read.
    pub fn len(&self) -> usize {
        fs::read_dir(&self.dir)
            .expect("artifact store directory readable")
            .filter_map(Result::ok)
            .filter(|e| e.path().extension().is_some_and(|x| x == ARTIFACT_EXT))
            .count()
    }

    /// Whether the store holds no artifacts.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("vapor-artifact-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn save_load_round_trips() {
        let dir = scratch("roundtrip");
        let store = ArtifactStore::open(&dir).unwrap();
        assert!(store.is_empty());
        let payload = b"portable bytecode bytes".to_vec();
        store.save(7, &payload).unwrap();
        assert_eq!(store.load(7).unwrap(), Some(payload));
        assert_eq!(store.load(8).unwrap(), None, "absent id is a plain miss");
        assert_eq!(store.len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corruption_is_rejected_not_returned() {
        let dir = scratch("corrupt");
        let store = ArtifactStore::open(&dir).unwrap();
        store.save(1, b"payload one").unwrap();
        let path = store.path_for(1);

        // Bit flip inside the payload: checksum must catch it.
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() - 20; // inside payload, before the checksum
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let err = store.load(1).unwrap_err();
        assert!(err.0.contains("checksum"), "{err}");

        // Truncation: framing must catch it.
        store.save(1, b"payload one").unwrap();
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let err = store.load(1).unwrap_err();
        assert!(err.0.contains("length mismatch"), "{err}");

        // A length field that overflows the offset arithmetic is a
        // mismatch like any other, not a panic.
        store.save(1, b"payload one").unwrap();
        let mut bytes = fs::read(&path).unwrap();
        bytes[5..13].copy_from_slice(&u64::MAX.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        let err = store.load(1).unwrap_err();
        assert!(err.0.contains("length mismatch"), "{err}");

        // Wrong magic: rejected before anything else is trusted.
        fs::write(&path, b"NOPE").unwrap();
        let err = store.load(1).unwrap_err();
        assert!(err.0.contains("truncated header"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }
}
