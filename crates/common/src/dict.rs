//! A shared string dictionary (interner) for dictionary-encoded execution.
//!
//! Batch-mode operators never compare `String`s in their hot loops: every
//! string cell is interned once, at batch-build time, into a dense `u32`
//! code, and joins/group-bys compare codes. Two invariants make the codes
//! usable as equality proxies:
//!
//! * **Dense assignment** — codes are handed out sequentially from 0, so a
//!   dictionary with `len() == n` has exactly the codes `0..n` and
//!   code-indexed side tables (`Vec<T>` keyed by code) are tight.
//! * **Stable identity** — equal strings get equal codes for the lifetime of
//!   the dictionary, across any number of batches, threads, and intern
//!   calls; `resolve(intern(s)) == s` always.
//!
//! Codes are only meaningful *within* one dictionary, so every operator in a
//! batch pipeline must share one `Arc<StringDict>` (operators verify this
//! with `Arc::ptr_eq` where two inputs meet). A dictionary only grows; it is
//! dropped with the pipeline that owns it.

use std::collections::HashMap;
use std::sync::RwLock;

/// A grow-only string interner handing out dense `u32` codes.
///
/// Thread-safe: readers (`resolve`, hot-loop lookups) take a shared lock,
/// interning takes the exclusive lock.
#[derive(Debug, Default)]
pub struct StringDict {
    inner: RwLock<DictInner>,
}

#[derive(Debug, Default)]
struct DictInner {
    codes: HashMap<String, u32>,
    strings: Vec<String>,
}

impl StringDict {
    /// An empty dictionary.
    pub fn new() -> StringDict {
        StringDict::default()
    }

    /// Intern one string, returning its dense code (existing or new).
    pub fn intern(&self, s: &str) -> u32 {
        if let Some(code) = self.lookup(s) {
            return code;
        }
        let mut inner = self.inner.write().expect("dict lock");
        // Another thread may have interned it between the two locks.
        if let Some(code) = inner.codes.get(s) {
            return *code;
        }
        let code = u32::try_from(inner.strings.len()).expect("dictionary overflow");
        inner.strings.push(s.to_owned());
        inner.codes.insert(s.to_owned(), code);
        code
    }

    /// Look up a string's code without interning it.
    pub fn lookup(&self, s: &str) -> Option<u32> {
        self.inner.read().expect("dict lock").codes.get(s).copied()
    }

    /// Resolve a code back to its string. Panics on a foreign code — codes
    /// are only meaningful within the dictionary that issued them.
    pub fn resolve(&self, code: u32) -> String {
        self.inner.read().expect("dict lock").strings[code as usize].clone()
    }

    /// Resolve every code of `codes`, in order, under one lock acquisition.
    pub fn resolve_all(&self, codes: &[u32]) -> Vec<String> {
        let inner = self.inner.read().expect("dict lock");
        codes.iter().map(|&c| inner.strings[c as usize].clone()).collect()
    }

    /// Number of distinct strings interned (== the exclusive upper bound of
    /// issued codes, by density).
    pub fn len(&self) -> usize {
        self.inner.read().expect("dict lock").strings.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append clones of every string with code `>= from` to `out` — one lock
    /// acquisition to sync a caller-local resolve cache with dictionary
    /// growth. Codes are dense, so a cache filled this way stays indexable
    /// by code.
    pub fn resolve_from(&self, from: usize, out: &mut Vec<String>) {
        let inner = self.inner.read().expect("dict lock");
        if from < inner.strings.len() {
            out.extend(inner.strings[from..].iter().cloned());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn intern_resolve_round_trip_and_dense_codes() {
        let d = StringDict::new();
        let a = d.intern("alpha");
        let b = d.intern("beta");
        let a2 = d.intern("alpha");
        assert_eq!(a, a2, "equal strings get equal codes");
        assert_ne!(a, b);
        assert_eq!((a, b), (0, 1), "codes are dense from 0");
        assert_eq!(d.resolve(a), "alpha");
        assert_eq!(d.resolve(b), "beta");
        assert_eq!(d.len(), 2);
        assert_eq!(d.lookup("beta"), Some(1));
        assert_eq!(d.lookup("gamma"), None);
    }

    #[test]
    fn codes_stable_across_batches_and_threads() {
        let d = Arc::new(StringDict::new());
        let words: Vec<String> = (0..200).map(|i| format!("w{}", i % 50)).collect();
        let first: Vec<u32> = words.iter().map(|w| d.intern(w)).collect();
        // A second "batch" from other threads must reproduce the same codes.
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let d = Arc::clone(&d);
                let words = &words;
                let first = &first;
                scope.spawn(move || {
                    let again: Vec<u32> = words.iter().map(|w| d.intern(w)).collect();
                    assert_eq!(&again, first);
                });
            }
        });
        assert_eq!(d.len(), 50);
        // Density: every code below len() resolves.
        for code in 0..d.len() as u32 {
            assert_eq!(d.lookup(&d.resolve(code)), Some(code));
        }
    }
}
