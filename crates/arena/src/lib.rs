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
}
