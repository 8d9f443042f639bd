//! Resettable scratch pools.
//!
//! The batch driver runs one allocation pipeline per worker thread. Without
//! buffer reuse every phase re-allocates its working set per function, and
//! under multiple workers the global allocator becomes the contention point:
//! `--jobs 2` ran *slower* than serial. The types here let each worker own
//! its scratch once and reset it between functions:
//!
//! * [`VecPool`] — a recycling pool of `Vec<T>` buffers. `take` hands out a
//!   cleared buffer (retaining its previous capacity), `put` returns it.
//! * [`NestedPool`] — the same idea for jagged `Vec<Vec<T>>` structures,
//!   keeping *inner* capacities alive across reuse.
//! * [`RowTable`] — a jagged table stored flat: every row in one array,
//!   behind per-row offsets. Kept in scratch and [`reset`](RowTable::reset)
//!   between uses, it retains no more memory than its own largest size,
//!   where a [`NestedPool`] keeps, for every slot, the largest capacity that
//!   slot ever needed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// A recycling pool of `Vec<T>` buffers.
///
/// `take` returns a cleared buffer reusing the capacity of the most
/// recently returned one; `put` gives a buffer back. Dropping buffers
/// instead of returning them is safe but degrades reuse.
#[derive(Debug, Clone)]
pub struct VecPool<T> {
    free: Vec<Vec<T>>,
}

impl<T> Default for VecPool<T> {
    fn default() -> Self {
        VecPool { free: Vec::new() }
    }
}

impl<T> VecPool<T> {
    /// Creates an empty pool.
    pub fn new() -> Self {
        VecPool { free: Vec::new() }
    }

    /// Takes a cleared buffer from the pool (or a fresh one).
    pub fn take(&mut self) -> Vec<T> {
        let mut v = self.free.pop().unwrap_or_default();
        v.clear();
        v
    }

    /// Takes a buffer and resizes it to `len` copies of `value`.
    pub fn take_filled(&mut self, len: usize, value: T) -> Vec<T>
    where
        T: Clone,
    {
        let mut v = self.take();
        v.resize(len, value);
        v
    }

    /// Returns a buffer to the pool.
    pub fn put(&mut self, v: Vec<T>) {
        if v.capacity() > 0 {
            self.free.push(v);
        }
    }

    /// Number of pooled buffers (diagnostic; used by reuse tests).
    pub fn pooled(&self) -> usize {
        self.free.len()
    }
}

/// A recycling pool for jagged `Vec<Vec<T>>` buffers that preserves the
/// capacity of the inner vectors across reuse.
#[derive(Debug, Clone)]
pub struct NestedPool<T> {
    outers: Vec<Vec<Vec<T>>>,
    inners: Vec<Vec<T>>,
}

impl<T> Default for NestedPool<T> {
    fn default() -> Self {
        NestedPool {
            outers: Vec::new(),
            inners: Vec::new(),
        }
    }
}

impl<T> NestedPool<T> {
    /// Creates an empty pool.
    pub fn new() -> Self {
        NestedPool {
            outers: Vec::new(),
            inners: Vec::new(),
        }
    }

    /// Takes an outer buffer holding exactly `n` cleared inner vectors.
    pub fn take(&mut self, n: usize) -> Vec<Vec<T>> {
        let mut v = self.outers.pop().unwrap_or_default();
        while v.len() > n {
            self.inners.push(v.pop().expect("len checked"));
        }
        for inner in &mut v {
            inner.clear();
        }
        while v.len() < n {
            let mut inner = self.inners.pop().unwrap_or_default();
            inner.clear();
            v.push(inner);
        }
        v
    }

    /// Takes a single cleared inner vector, for growing a jagged structure
    /// past the size it was taken with.
    pub fn take_inner(&mut self) -> Vec<T> {
        let mut v = self.inners.pop().unwrap_or_default();
        v.clear();
        v
    }

    /// Returns a jagged buffer to the pool, inner capacities intact.
    pub fn put(&mut self, v: Vec<Vec<T>>) {
        self.outers.push(v);
    }

    /// Number of pooled outer buffers (diagnostic; used by reuse tests).
    pub fn pooled(&self) -> usize {
        self.outers.len()
    }
}

/// Where one row of a [`RowTable`] lives: `cap` entries of the flat array
/// from `start`, the first `len` of them the row's.
#[derive(Clone, Copy, Debug, Default)]
struct Slot {
    start: u32,
    len: u32,
    cap: u32,
}

impl Slot {
    fn range(self) -> std::ops::Range<usize> {
        let start = self.start as usize;
        start..start + self.len as usize
    }

    fn end(self) -> usize {
        self.start as usize + self.cap as usize
    }
}

/// A table of variable-length rows kept in one flat array.
///
/// Each row owns a *slot* of the array: a contiguous run of entries, the
/// row's own first. A table is filled one of three ways:
///
/// * row by row — [`fill_row`](Self::fill_row) writes a row's entries at
///   the end of the array, in a slot exactly their size;
/// * by one stable counting pass — [`fill_counted`](Self::fill_counted)
///   lays every row out from `(row, entry)` pairs given in production
///   order, each row keeping its pairs' order;
/// * by pushes into rooms laid out beforehand —
///   [`reset_with_room`](Self::reset_with_room), when a bound on each
///   row's length is known before its entries are.
///
/// A filled table can still be edited in place. [`remove`](Self::remove)
/// and [`row_mut`](Self::row_mut) stay inside the row's slot;
/// [`push`](Self::push) into a full row moves the row to the end of the
/// array with twice the room (a row already at the end grows where it is),
/// and the old slot stays dead until the table is reset. Keep the table
/// itself in scratch: [`reset`](Self::reset) empties it and keeps its
/// capacity.
#[derive(Clone, Debug)]
pub struct RowTable<T> {
    entries: Vec<T>,
    rows: Vec<Slot>,
}

impl<T> Default for RowTable<T> {
    fn default() -> Self {
        RowTable {
            entries: Vec::new(),
            rows: Vec::new(),
        }
    }
}

/// An array offset or length as a slot field. Slot arithmetic runs in
/// `usize` and is narrowed here, checked, so a table too large for `u32`
/// offsets panics instead of overlapping its rows.
fn offset(n: usize) -> u32 {
    u32::try_from(n).expect("row table larger than u32::MAX entries")
}

impl<T: Copy> RowTable<T> {
    /// Creates an empty table with no rows.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties the table to `num_rows` empty rows, keeping its capacity.
    pub fn reset(&mut self, num_rows: usize) {
        self.entries.clear();
        self.rows.clear();
        self.rows.resize(num_rows, Slot::default());
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Row `i`'s entries.
    pub fn row(&self, i: usize) -> &[T] {
        &self.entries[self.rows[i].range()]
    }

    /// Row `i`'s entries, for in-place edits.
    pub fn row_mut(&mut self, i: usize) -> &mut [T] {
        let range = self.rows[i].range();
        &mut self.entries[range]
    }

    /// Total entries over all rows.
    pub fn num_entries(&self) -> usize {
        self.rows.iter().map(|s| s.len as usize).sum()
    }

    /// Replaces row `i` with `items`, written at the end of the array in a
    /// slot exactly their size.
    pub fn fill_row(&mut self, i: usize, items: impl IntoIterator<Item = T>) {
        let start = self.entries.len();
        self.entries.extend(items);
        let len = offset(self.entries.len() - start);
        self.rows[i] = Slot {
            start: offset(start),
            len,
            cap: len,
        };
    }

    /// Empties the table to one empty row per item of `rooms`, each in a
    /// slot of exactly that many entries (set to `filler`), end to end.
    /// [`push`](Self::push) then fills a row in place until its room runs
    /// out.
    pub fn reset_with_room(&mut self, rooms: impl IntoIterator<Item = usize>, filler: T) {
        self.reset(0);
        self.rows.extend(rooms.into_iter().map(|room| Slot {
            start: 0,
            len: 0,
            cap: offset(room),
        }));
        self.lay_out(filler);
    }

    /// Places the slots end to end in row order, each `cap` entries long,
    /// and sizes the array to match.
    fn lay_out(&mut self, filler: T) {
        let mut start = 0;
        for slot in &mut self.rows {
            slot.start = offset(start);
            start = slot.end();
        }
        self.entries.resize(start, filler);
    }

    /// Replaces the table with `num_rows` rows holding the `(row, entry)`
    /// pairs that `pairs` yields, each row in yield order, every slot
    /// exactly its row's size. `pairs` is called twice and must yield the
    /// same pairs both times: the first pass sizes the rows, the second
    /// writes them.
    ///
    /// # Panics
    ///
    /// Panics if a pair names a row at or past `num_rows`.
    pub fn fill_counted<I>(&mut self, num_rows: usize, pairs: impl Fn() -> I)
    where
        I: Iterator<Item = (usize, T)>,
    {
        self.reset(num_rows);
        let mut filler = None;
        for (r, x) in pairs() {
            let cap = &mut self.rows[r].cap;
            *cap = cap
                .checked_add(1)
                .expect("row larger than u32::MAX entries");
            filler.get_or_insert(x);
        }
        let Some(filler) = filler else {
            return;
        };
        self.lay_out(filler);
        for (r, x) in pairs() {
            self.push(r, x);
        }
        debug_assert!(
            self.rows.iter().all(|s| s.len == s.cap),
            "fill_counted: the two passes yielded different pairs"
        );
    }

    /// Appends `x` to row `i`. A full row first moves to the end of the
    /// array with twice its room, unless it already ends there.
    pub fn push(&mut self, i: usize, x: T) {
        if self.rows[i].len == self.rows[i].cap {
            self.grow(i, x);
        }
        let slot = &mut self.rows[i];
        self.entries[slot.range().end] = x;
        slot.len += 1;
    }

    /// Doubles full row `i`'s room (at least 4), moving the row to the end
    /// of the array unless it already ends there; new room holds `filler`.
    #[cold]
    fn grow(&mut self, i: usize, filler: T) {
        let slot = &mut self.rows[i];
        if slot.end() != self.entries.len() {
            let start = self.entries.len();
            self.entries.extend_from_within(slot.range());
            slot.start = offset(start);
        }
        slot.cap = offset(2 * slot.cap as usize).max(4);
        self.entries.resize(slot.end(), filler);
    }

    /// Removes and returns entry `pos` of row `i`, shifting the entries
    /// after it left, as [`Vec::remove`] does.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of the row's bounds.
    pub fn remove(&mut self, i: usize, pos: usize) -> T {
        let slot = self.rows[i];
        assert!(pos < slot.len as usize, "removing past the end of row {i}");
        let start = slot.start as usize + pos;
        let x = self.entries[start];
        self.entries.copy_within(start + 1..slot.range().end, start);
        self.rows[i].len -= 1;
        x
    }

    /// Empties row `i`; its slot stays its own.
    pub fn clear_row(&mut self, i: usize) {
        self.rows[i].len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_pool_retains_capacity() {
        let mut p: VecPool<usize> = VecPool::new();
        let mut v = p.take();
        v.extend(0..100);
        let cap = v.capacity();
        p.put(v);
        assert_eq!(p.pooled(), 1);
        let v2 = p.take();
        assert!(v2.is_empty());
        assert_eq!(v2.capacity(), cap);
        assert_eq!(p.pooled(), 0);
    }

    #[test]
    fn nested_pool_preserves_inner_capacity() {
        let mut p: NestedPool<u8> = NestedPool::new();
        let mut j = p.take(3);
        j[0].extend([1, 2, 3]);
        j[1].extend([4; 50]);
        let cap1 = j[1].capacity();
        j.push(p.take_inner());
        p.put(j);

        // Ask for fewer inners than were returned: extras park in the
        // inner pool and come back on the next growth.
        let j2 = p.take(2);
        assert_eq!(j2.len(), 2);
        assert!(j2.iter().all(|v| v.is_empty()));
        let total_cap: usize = j2.iter().map(|v| v.capacity()).sum();
        assert!(total_cap >= cap1.min(50));
    }

    #[test]
    fn row_table_fills_row_by_row_in_any_order() {
        let mut t: RowTable<u32> = RowTable::new();
        t.reset(3);
        t.fill_row(2, [7, 8]);
        t.fill_row(0, [1]);
        assert_eq!(t.row(0), &[1]);
        assert!(t.row(1).is_empty());
        assert_eq!(t.row(2), &[7, 8]);
        assert_eq!(t.num_entries(), 3);
        // Exact slots: the rows sit end to end.
        assert_eq!(t.entries.len(), 3);
    }

    #[test]
    fn row_table_counting_fill_keeps_production_order_per_row() {
        let pairs = [(2, 'a'), (0, 'b'), (2, 'c'), (1, 'd'), (0, 'e'), (2, 'f')];
        let mut t: RowTable<char> = RowTable::new();
        t.fill_counted(4, || pairs.iter().copied());
        assert_eq!(t.num_rows(), 4);
        assert_eq!(t.row(0), &['b', 'e']);
        assert_eq!(t.row(1), &['d']);
        assert_eq!(t.row(2), &['a', 'c', 'f']);
        assert!(t.row(3).is_empty());
        // Exact slots, end to end.
        assert_eq!(t.entries.len(), 6);
        // No pairs: every row empty.
        t.fill_counted(2, std::iter::empty);
        assert_eq!(t.num_rows(), 2);
        assert!(t.row(0).is_empty() && t.row(1).is_empty());
    }

    #[test]
    fn row_table_pushes_fill_laid_out_rooms_in_place() {
        let mut t: RowTable<u32> = RowTable::new();
        t.reset_with_room([2, 0, 3], 0);
        assert_eq!(t.entries.len(), 5);
        t.push(2, 7);
        t.push(0, 1);
        t.push(2, 8);
        assert_eq!(t.row(0), &[1]);
        assert!(t.row(1).is_empty());
        assert_eq!(t.row(2), &[7, 8]);
        // Within their rooms, no row moved.
        assert_eq!(t.entries.len(), 5);
        assert_eq!((t.rows[2].start, t.rows[2].cap), (2, 3));
    }

    #[test]
    fn row_table_push_moves_a_full_row_to_the_end() {
        let mut t: RowTable<u32> = RowTable::new();
        t.reset(2);
        t.fill_row(0, [1, 2]);
        t.fill_row(1, [3]);
        // Row 0 is full and not last: it moves past row 1, with room for 4.
        t.push(0, 9);
        assert_eq!(t.row(0), &[1, 2, 9]);
        assert_eq!(t.row(1), &[3]);
        assert_eq!((t.rows[0].start, t.rows[0].cap), (3, 4));
        assert_eq!(t.entries.len(), 7);
        // It now ends the array: the next overflow grows it in place.
        t.push(0, 10);
        t.push(0, 11);
        assert_eq!(t.rows[0].start, 3);
        assert_eq!(t.rows[0].cap, 8);
        assert_eq!(t.row(0), &[1, 2, 9, 10, 11]);
        // Removal shifts left inside the slot; in-place edits stay there.
        assert_eq!(t.remove(0, 1), 2);
        t.row_mut(0)[0] = 5;
        assert_eq!(t.row(0), &[5, 9, 10, 11]);
        t.clear_row(0);
        assert!(t.row(0).is_empty());
        assert_eq!(t.row(1), &[3]);
    }

    #[test]
    fn row_table_reset_keeps_capacity() {
        let mut t: RowTable<u64> = RowTable::new();
        t.reset(100);
        for i in 0..100 {
            t.fill_row(i, 0..10);
        }
        let cap = t.entries.capacity();
        t.reset(10);
        assert_eq!(t.num_rows(), 10);
        assert_eq!(t.num_entries(), 0);
        assert_eq!(t.entries.capacity(), cap);
        for i in 0..10 {
            t.push(i, 1);
        }
        assert!(
            t.entries.capacity() == cap,
            "pushes into a reset table reallocated"
        );
    }
}
