//! Dictionary-coded strings: a shared, append-only string table and the
//! interner that fills it.
//!
//! A [`StrTable`] maps dense `u32` codes to strings. Each entry keeps the
//! string's one `Arc<str>` and its [`str_hash`], computed once when the
//! string is interned, so a consumer that groups or joins on a coded
//! column hashes a code by a table read and compares two codes of one
//! table as integers. A coded column ([`crate::ColumnVec::Coded`]) holds
//! an `Arc` of its table; reading a row as a [`crate::Value`] decodes it.
//!
//! One writer, a [`StrInterner`], appends to a table; any number of
//! threads read it. An entry is written once, before its code is handed
//! out, and never changes, so a reader holding a code always finds the
//! entry. A table holds at most [`STR_TABLE_CAPACITY`] strings. When it is
//! full the interner starts a fresh one; the old table is freed with the
//! last chunk or pane that references it, so the strings held follow the
//! live data, not the length of the run.
//!
//! Strings are hashed with one randomly keyed SipHash per process
//! ([`str_hash`]): coded and uncoded copies of one string hash alike, and
//! keys read from outside the program stay hard to flood with collisions.
//! Codes are assigned densely by the table, so no sender can choose them.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Strings one [`StrTable`] holds before its interner starts a fresh one.
pub const STR_TABLE_CAPACITY: usize = 1 << 14;

/// Entries per page; pages are allocated as the table fills.
const PAGE: usize = 1 << 9;

/// The content hash of a string under the process's randomly keyed
/// SipHash. Equal strings hash equally wherever they are stored.
pub fn str_hash(s: &str) -> u64 {
    static KEYS: OnceLock<RandomState> = OnceLock::new();
    let mut h = KEYS.get_or_init(RandomState::new).build_hasher();
    h.write_usize(s.len());
    h.write(s.as_bytes());
    h.finish()
}

/// One entry: the string and its [`str_hash`].
type Slot = OnceLock<(Arc<str>, u64)>;

/// An append-only table of strings by dense `u32` code (see the module
/// docs). Shared by `Arc` between its interner and every coded column.
pub struct StrTable {
    pages: Box<[OnceLock<Box<[Slot]>>]>,
    len: AtomicUsize,
}

impl StrTable {
    fn new() -> StrTable {
        StrTable {
            pages: (0..STR_TABLE_CAPACITY / PAGE)
                .map(|_| OnceLock::new())
                .collect(),
            len: AtomicUsize::new(0),
        }
    }

    /// Strings interned so far.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// True when no string is interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn slot(&self, code: u32) -> Option<&(Arc<str>, u64)> {
        let code = code as usize;
        self.pages.get(code / PAGE)?.get()?[code % PAGE].get()
    }

    fn entry(&self, code: u32) -> &(Arc<str>, u64) {
        self.slot(code)
            .unwrap_or_else(|| unreachable!("code {code} was handed out before it was written"))
    }

    /// The string of `code`. Every code comes from this table's interner,
    /// which writes the entry before handing the code out.
    #[inline]
    pub fn str(&self, code: u32) -> &Arc<str> {
        &self.entry(code).0
    }

    /// [`str_hash`] of the string of `code`, computed when it was interned.
    #[inline]
    pub fn hash(&self, code: u32) -> u64 {
        self.entry(code).1
    }

    /// Write entry `code` (the next free one) and publish it.
    fn push(&self, code: u32, s: Arc<str>, hash: u64) {
        let page = self.pages[code as usize / PAGE]
            .get_or_init(|| (0..PAGE).map(|_| OnceLock::new()).collect());
        let _ = page[code as usize % PAGE].set((s, hash));
        self.len.store(code as usize + 1, Ordering::Release);
    }
}

impl fmt::Debug for StrTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "StrTable[{} strings]", self.len())
    }
}

/// The table index is keyed by a finished [`str_hash`] already.
#[derive(Default)]
struct HashIsKey(u64);

impl Hasher for HashIsKey {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("the string index hashes u64s only")
    }

    fn write_u64(&mut self, h: u64) {
        self.0 = h;
    }
}

/// End of a code chain.
const NO_CODE: u32 = u32::MAX;

/// The one writer of a [`StrTable`]: interns strings to codes, and starts
/// a fresh table when the current one is full.
#[derive(Debug)]
pub struct StrInterner {
    table: Arc<StrTable>,
    /// Hash → the last code interned with that hash.
    heads: HashMap<u64, u32, BuildHasherDefault<HashIsKey>>,
    /// Per code, the previous code with the same hash.
    next: Vec<u32>,
    swaps: u64,
}

impl Default for StrInterner {
    fn default() -> StrInterner {
        StrInterner::new()
    }
}

impl StrInterner {
    /// An interner over a fresh, empty table.
    pub fn new() -> StrInterner {
        StrInterner {
            table: Arc::new(StrTable::new()),
            heads: HashMap::default(),
            next: Vec::new(),
            swaps: 0,
        }
    }

    /// The table codes currently refer to.
    pub fn table(&self) -> &Arc<StrTable> {
        &self.table
    }

    /// How many times a full table was replaced by a fresh one.
    pub fn swaps(&self) -> u64 {
        self.swaps
    }

    /// The code of `s` in [`StrInterner::table`], interning it if new. A
    /// repeated string costs one hash and one compare; only a new one
    /// allocates. When the table is full, a fresh table takes its place
    /// first, so earlier codes refer to the previous table.
    pub fn intern(&mut self, s: &str) -> u32 {
        let hash = str_hash(s);
        let mut code = self.heads.get(&hash).copied().unwrap_or(NO_CODE);
        while code != NO_CODE {
            if **self.table.str(code) == *s {
                return code;
            }
            code = self.next[code as usize];
        }
        if self.next.len() == STR_TABLE_CAPACITY {
            self.table = Arc::new(StrTable::new());
            self.heads.clear();
            self.next.clear();
            self.swaps += 1;
        }
        let code = self.next.len() as u32;
        let prev = self.heads.insert(hash, code).unwrap_or(NO_CODE);
        self.next.push(prev);
        self.table.push(code, Arc::from(s), hash);
        code
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_dense_and_idempotent() {
        let mut i = StrInterner::new();
        assert_eq!(i.intern("a"), 0);
        assert_eq!(i.intern("b"), 1);
        assert_eq!(i.intern("a"), 0);
        let t = i.table();
        assert_eq!(t.len(), 2);
        assert_eq!(&**t.str(1), "b");
        assert_eq!(t.hash(0), str_hash("a"));
        assert_ne!(str_hash("a"), str_hash("b"));
    }

    /// A full table is replaced, not grown; the old one lives while it is
    /// referenced and is freed after.
    #[test]
    fn a_full_table_is_swapped_for_a_fresh_one() {
        let mut i = StrInterner::new();
        for n in 0..STR_TABLE_CAPACITY {
            assert_eq!(i.intern(&format!("s{n}")), n as u32);
        }
        let old = Arc::downgrade(i.table());
        assert_eq!(i.swaps(), 0);
        assert_eq!(i.intern("s0"), 0, "a known string stays put");
        assert_eq!(i.intern("fresh"), 0);
        assert_eq!(i.swaps(), 1);
        assert_eq!(i.table().len(), 1);
        assert!(old.upgrade().is_none(), "nothing references the old table");
        assert_eq!(i.intern("s0"), 1, "the fresh table interns anew");
    }
}
