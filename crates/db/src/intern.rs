//! Process-wide string interning for hot text values.
//!
//! The build pipeline stores millions of short, highly repetitive strings —
//! metro names, source tags, dates, IP addresses — one heap `String` per
//! table cell. [`Str`] collapses those to a `u32` symbol into a process-wide
//! leaked pool, so equal short strings share one allocation and clone/hash
//! cost a word. Long strings (WKT polylines, free-form payloads) would bloat
//! a leaked pool across repeated builds, so they stay heap-allocated behind
//! an `Arc<String>` (cheap clone, freed on drop), packed with the symbol
//! case into a single tagged word so a [`Str`] — and thus a table cell —
//! stays small.
//!
//! The representation is chosen *deterministically by byte length* at
//! construction: content ≤ [`SYM_MAX_LEN`] is always a symbol, longer is
//! always `Arc`. Equal content therefore always has the same representation,
//! which makes the symbol-id fast paths in `Eq`/`Ord` sound. Symbol ids are
//! assignment-order (first intern wins) and thus process-local: they never
//! appear in `Display`, fingerprints, or persisted CSV, so concurrent
//! interning from server workers cannot perturb any byte-identity
//! contract.

use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::num::NonZeroUsize;
use std::sync::{Arc, OnceLock};

use parking_lot::RwLock;

/// Longest string (in bytes) stored in the leaked symbol pool. The pool is
/// meant for bounded vocabularies; anything longer is `Arc`-backed.
pub const SYM_MAX_LEN: usize = 64;

struct Pool {
    map: HashMap<&'static str, u32>,
    strings: Vec<&'static str>,
    /// Bump cursor into the current arena chunk (as an address, so the
    /// pool stays `Send`), and bytes left in that chunk.
    chunk_cursor: usize,
    chunk_left: usize,
}

/// Pool content is leaked in 64 KiB chunks rather than one `Box` per
/// string: tens of thousands of tiny immortal allocations interleaved
/// with transient build scratch would pin a page neighborhood each,
/// fragmenting the heap for the life of the process.
const POOL_CHUNK: usize = 64 * 1024;

impl Pool {
    fn alloc(&mut self, s: &str) -> &'static str {
        if self.chunk_left < s.len() {
            let size = POOL_CHUNK.max(s.len());
            let chunk: &'static mut [u8] = Box::leak(vec![0u8; size].into_boxed_slice());
            self.chunk_cursor = chunk.as_mut_ptr() as usize;
            self.chunk_left = size;
        }
        // SAFETY: the cursor points into a leaked ('static) chunk with at
        // least `s.len()` bytes left; chunks are never reused or freed, so
        // the returned slice is immutable and 'static once written.
        unsafe {
            let dst = self.chunk_cursor as *mut u8;
            std::ptr::copy_nonoverlapping(s.as_ptr(), dst, s.len());
            self.chunk_cursor += s.len();
            self.chunk_left -= s.len();
            std::str::from_utf8_unchecked(std::slice::from_raw_parts(dst, s.len()))
        }
    }
}

fn pool() -> &'static RwLock<Pool> {
    static POOL: OnceLock<RwLock<Pool>> = OnceLock::new();
    POOL.get_or_init(|| {
        RwLock::new(Pool {
            map: HashMap::new(),
            strings: Vec::new(),
            chunk_cursor: 0,
            chunk_left: 0,
        })
    })
}

/// Interns `s`, returning its stable symbol id. The same content always maps
/// to the same id for the life of the process, from any thread.
fn intern(s: &str) -> u32 {
    let p = pool();
    if let Some(&id) = p.read().map.get(s) {
        return id;
    }
    let mut w = p.write();
    if let Some(&id) = w.map.get(s) {
        return id;
    }
    let leaked: &'static str = w.alloc(s);
    let id = u32::try_from(w.strings.len()).expect("interner pool overflow");
    w.strings.push(leaked);
    w.map.insert(leaked, id);
    id
}

/// Resolves a symbol id back to its string. Pool entries are leaked, so the
/// returned reference is `'static` and no lock is held after return.
fn resolve(id: u32) -> &'static str {
    pool().read().strings[id as usize]
}

/// Number of distinct strings in the symbol pool (diagnostics/tests).
pub fn pool_len() -> usize {
    pool().read().strings.len()
}

/// Total bytes of string content held by the symbol pool (diagnostics).
pub fn pool_bytes() -> usize {
    pool().read().strings.iter().map(|s| s.len()).sum()
}

/// An immutable, cheaply clonable string: interned symbol for short content,
/// shared `Arc<String>` for long content. See the module docs for the
/// representation invariant.
///
/// Packed into one machine word so `Value` stays a two-word cell in the
/// table arena: odd words are `(symbol_id << 1) | 1`, even words are a raw
/// `Arc<String>` pointer (allocations are word-aligned, so the low bit is
/// always clear, and non-null, so the word is never zero). `NonZeroUsize`
/// keeps the null niche, making `Option<Str>` also one word.
pub struct Str(NonZeroUsize);

const SYM_TAG: usize = 1;

// The whole point of the packed word: one-word `Str`, two-word `Value`.
const _: () = assert!(std::mem::size_of::<Str>() == 8);
const _: () = assert!(std::mem::size_of::<Option<Str>>() == 8);

// SAFETY: a `Str` is semantically either a `u32` symbol (plain data) or an
// owned `Arc<String>` refcount (`Arc<String>: Send + Sync`); the packing
// changes the layout, not the ownership story.
unsafe impl Send for Str {}
unsafe impl Sync for Str {}

impl Str {
    pub fn new(s: &str) -> Self {
        if s.len() <= SYM_MAX_LEN {
            Str::from_sym(intern(s))
        } else {
            Str::from_heap(Arc::new(s.to_owned()))
        }
    }

    fn from_sym(id: u32) -> Self {
        // `intern` caps ids at u32, so the shift cannot overflow on 64-bit
        // targets, and the `| 1` makes the word non-zero.
        Str(NonZeroUsize::new(((id as usize) << 1) | SYM_TAG).expect("tagged sym is non-zero"))
    }

    fn from_heap(a: Arc<String>) -> Self {
        let raw = Arc::into_raw(a) as usize;
        debug_assert_eq!(raw & SYM_TAG, 0, "Arc allocations are word-aligned");
        Str(NonZeroUsize::new(raw).expect("Arc pointer is non-null"))
    }

    /// The raw heap pointer, when this string is `Arc`-backed.
    fn heap_ptr(&self) -> Option<*const String> {
        let w = self.0.get();
        (w & SYM_TAG == 0).then_some(w as *const String)
    }

    pub fn as_str(&self) -> &str {
        let w = self.0.get();
        if w & SYM_TAG == SYM_TAG {
            resolve((w >> 1) as u32)
        } else {
            // SAFETY: even words are always a live `Arc<String>` pointer we
            // hold a strong count on; the borrow is tied to `&self`.
            unsafe { &*(w as *const String) }.as_str()
        }
    }

    /// The symbol id, when this string lives in the pool.
    pub fn sym(&self) -> Option<u32> {
        let w = self.0.get();
        (w & SYM_TAG == SYM_TAG).then_some((w >> 1) as u32)
    }

    pub fn len(&self) -> usize {
        self.as_str().len()
    }

    pub fn is_empty(&self) -> bool {
        self.as_str().is_empty()
    }
}

impl Clone for Str {
    fn clone(&self) -> Self {
        if let Some(p) = self.heap_ptr() {
            // SAFETY: `p` came from `Arc::into_raw` and this `Str` holds one
            // strong count, so bumping it is sound.
            unsafe { Arc::increment_strong_count(p) };
        }
        Str(self.0)
    }
}

impl Drop for Str {
    fn drop(&mut self) {
        if let Some(p) = self.heap_ptr() {
            // SAFETY: reclaims the strong count this `Str` owns.
            unsafe { drop(Arc::from_raw(p)) };
        }
    }
}

impl PartialEq for Str {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (self.0.get(), other.0.get());
        if a == b {
            // Same symbol (the pool dedups) or the same heap allocation.
            return true;
        }
        if a & SYM_TAG == 0 && b & SYM_TAG == 0 {
            // Distinct heap allocations can still hold equal content.
            return self.as_str() == other.as_str();
        }
        // Distinct symbols have distinct content, and the length invariant
        // means a symbol never equals heap content.
        false
    }
}
impl Eq for Str {}

impl Hash for Str {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state)
    }
}

impl PartialOrd for Str {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Str {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self.0 == other.0 && self.0.get() & SYM_TAG == SYM_TAG {
            return std::cmp::Ordering::Equal;
        }
        self.as_str().cmp(other.as_str())
    }
}

impl fmt::Display for Str {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Str {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl std::ops::Deref for Str {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for Str {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl std::borrow::Borrow<str> for Str {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl From<&str> for Str {
    fn from(s: &str) -> Self {
        Str::new(s)
    }
}

impl From<&String> for Str {
    fn from(s: &String) -> Self {
        Str::new(s)
    }
}

impl From<String> for Str {
    fn from(s: String) -> Self {
        if s.len() <= SYM_MAX_LEN {
            Str::from_sym(intern(&s))
        } else {
            Str::from_heap(Arc::new(s))
        }
    }
}

impl From<&Str> for String {
    fn from(s: &Str) -> String {
        s.as_str().to_owned()
    }
}

impl From<std::borrow::Cow<'_, str>> for Str {
    fn from(s: std::borrow::Cow<'_, str>) -> Self {
        match s {
            std::borrow::Cow::Borrowed(b) => Str::new(b),
            std::borrow::Cow::Owned(o) => Str::from(o),
        }
    }
}

impl PartialEq<str> for Str {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<String> for Str {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other.as_str()
    }
}

impl PartialEq<Str> for String {
    fn eq(&self, other: &Str) -> bool {
        self.as_str() == other.as_str()
    }
}

impl PartialEq<&str> for Str {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_strings_share_a_symbol() {
        let a = Str::new("chicago");
        let b = Str::from("chicago".to_string());
        assert_eq!(a.sym(), b.sym());
        assert!(a.sym().is_some());
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "chicago");
    }

    #[test]
    fn long_strings_stay_on_the_heap() {
        let long = "x".repeat(SYM_MAX_LEN + 1);
        let a = Str::new(&long);
        assert!(a.sym().is_none());
        let b = Str::new(&long);
        assert_eq!(a, b, "heap strings compare by content");
        assert_eq!(a.as_str(), long);
    }

    #[test]
    fn boundary_length_is_interned() {
        let s = "y".repeat(SYM_MAX_LEN);
        assert!(Str::new(&s).sym().is_some());
    }

    #[test]
    fn ordering_matches_str_ordering() {
        let mut v = vec![Str::new("b"), Str::new("a"), Str::new("c")];
        v.sort();
        let strs: Vec<&str> = v.iter().map(|s| s.as_str()).collect();
        assert_eq!(strs, vec!["a", "b", "c"]);
        // symbol ids were assigned in intern order, not sort order
        assert!(Str::new("b").sym().unwrap() != Str::new("a").sym().unwrap());
    }

    #[test]
    fn hash_matches_str_hash() {
        use std::collections::hash_map::DefaultHasher;
        fn h<T: Hash + ?Sized>(t: &T) -> u64 {
            let mut s = DefaultHasher::new();
            t.hash(&mut s);
            s.finish()
        }
        assert_eq!(h(&Str::new("denver")), h("denver"));
        let long = "z".repeat(200);
        assert_eq!(h(&Str::new(&long)), h(long.as_str()));
    }

    #[test]
    fn borrow_allows_str_keyed_lookup() {
        let mut m: std::collections::HashMap<Str, i32> = std::collections::HashMap::new();
        m.insert(Str::new("k"), 1);
        assert_eq!(m.get("k"), Some(&1));
    }
}
