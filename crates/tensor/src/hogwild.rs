//! Lock-free shared embedding storage for HOGWILD training.
//!
//! PBG trains each edge bucket on many threads "with no explicit
//! synchronization between cores" (Recht et al., 2011). In Rust, unguarded
//! shared mutation is undefined behaviour, so [`HogwildArray`] stores every
//! f32 as an `AtomicU32` and performs bit-cast loads/stores with
//! [`Ordering::Relaxed`]. Relaxed atomics compile to plain loads/stores on
//! x86 and AArch64, so this preserves HOGWILD's performance model while
//! remaining sound: races lose updates (exactly HOGWILD's contract) but can
//! never tear a float or invoke UB.

use std::sync::atomic::{AtomicU32, Ordering};

/// A fixed-size shared array of f32 rows supporting concurrent lock-free
/// reads and writes from many threads.
///
/// Rows (embeddings) are the access unit: threads stage a row into a local
/// buffer with [`HogwildArray::read_row_into`], compute, and either publish
/// the whole row ([`HogwildArray::write_row`]) or accumulate a delta
/// ([`HogwildArray::add_to_row`]).
#[derive(Debug)]
pub struct HogwildArray {
    rows: usize,
    cols: usize,
    data: Vec<AtomicU32>,
}

impl HogwildArray {
    /// Creates a zeroed `rows × cols` array.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        data.resize_with(rows * cols, || AtomicU32::new(0));
        HogwildArray { rows, cols, data }
    }

    /// Creates an array from row-major f32 data.
    ///
    /// # Panics
    ///
    /// Panics if `init.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, init: Vec<f32>) -> Self {
        assert_eq!(init.len(), rows * cols, "from_vec: data length mismatch");
        let data = init
            .into_iter()
            .map(|v| AtomicU32::new(v.to_bits()))
            .collect();
        HogwildArray { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (embedding dimension).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of f32 elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the array holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Reads element `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f32 {
        assert!(row < self.rows && col < self.cols, "get: out of bounds");
        f32::from_bits(self.data[row * self.cols + col].load(Ordering::Relaxed))
    }

    /// Writes element `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&self, row: usize, col: usize, value: f32) {
        assert!(row < self.rows && col < self.cols, "set: out of bounds");
        self.data[row * self.cols + col].store(value.to_bits(), Ordering::Relaxed);
    }

    /// The cells of row `row`, sliced once so the row loops below run
    /// without a per-element bounds check.
    #[inline]
    fn row_cells(&self, row: usize, what: &str) -> &[AtomicU32] {
        assert!(row < self.rows, "{what}: row {row} out of bounds");
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Copies row `row` into `buf`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds or `buf.len() != cols`.
    #[inline]
    pub fn read_row_into(&self, row: usize, buf: &mut [f32]) {
        let cells = self.row_cells(row, "read_row_into");
        assert_eq!(buf.len(), self.cols, "read_row_into: buffer size mismatch");
        for (b, cell) in buf.iter_mut().zip(cells) {
            *b = f32::from_bits(cell.load(Ordering::Relaxed));
        }
    }

    /// Publishes `values` as row `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds or `values.len() != cols`.
    #[inline]
    pub fn write_row(&self, row: usize, values: &[f32]) {
        let cells = self.row_cells(row, "write_row");
        assert_eq!(values.len(), self.cols, "write_row: size mismatch");
        for (cell, v) in cells.iter().zip(values) {
            cell.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Accumulates `alpha * delta` into row `row` element-by-element.
    ///
    /// Each element update is an independent relaxed read-modify-write
    /// (load, add, store). Concurrent updates may lose increments — that is
    /// HOGWILD's accepted semantics, not a bug.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds or `delta.len() != cols`.
    #[inline]
    pub fn add_to_row(&self, row: usize, alpha: f32, delta: &[f32]) {
        let cells = self.row_cells(row, "add_to_row");
        assert_eq!(delta.len(), self.cols, "add_to_row: size mismatch");
        for (cell, d) in cells.iter().zip(delta) {
            let cur = f32::from_bits(cell.load(Ordering::Relaxed));
            cell.store((cur + alpha * d).to_bits(), Ordering::Relaxed);
        }
    }

    /// Hints the CPU to start loading row `row` into cache, one prefetch
    /// per cache line, so a caller that knows every row it will touch can
    /// overlap their misses instead of taking them one after another.
    /// Out-of-range rows are ignored; on targets other than x86_64 this
    /// does nothing.
    #[inline]
    pub fn prefetch_row(&self, row: usize) {
        #[cfg(target_arch = "x86_64")]
        if row < self.rows {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            let cells = &self.data[row * self.cols..(row + 1) * self.cols];
            const LINE: usize = 64;
            let base = cells.as_ptr().cast::<i8>();
            let bytes = std::mem::size_of_val(cells);
            // one address per line from the row start, plus the last byte
            // for the line a misaligned row spills into
            for off in (0..bytes).step_by(LINE).chain(bytes.checked_sub(1)) {
                // SAFETY: SSE is part of the x86_64 baseline, so the
                // instruction exists on every CPU this code runs on. A
                // prefetch is a hint, not a memory access: it never faults
                // and has no effect on program state, and the address is
                // inside this row anyway.
                unsafe { _mm_prefetch::<_MM_HINT_T0>(base.wrapping_add(off)) };
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = row;
    }

    /// Atomically adds `delta` to the scalar at `(row, col)` using a
    /// compare-exchange loop (no lost updates). Used for optimizer
    /// accumulators where monotonicity matters.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn fetch_add(&self, row: usize, col: usize, delta: f32) -> f32 {
        assert!(
            row < self.rows && col < self.cols,
            "fetch_add: out of bounds"
        );
        let cell = &self.data[row * self.cols + col];
        let mut cur = cell.load(Ordering::Relaxed);
        loop {
            let new = (f32::from_bits(cur) + delta).to_bits();
            match cell.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return f32::from_bits(cur),
                Err(actual) => cur = actual,
            }
        }
    }

    /// Snapshots the full contents into a `Vec<f32>` (row-major).
    pub fn to_vec(&self) -> Vec<f32> {
        self.data
            .iter()
            .map(|c| f32::from_bits(c.load(Ordering::Relaxed)))
            .collect()
    }

    /// Overwrites the full contents from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != len()`.
    pub fn copy_from_slice(&self, values: &[f32]) {
        assert_eq!(
            values.len(),
            self.data.len(),
            "copy_from_slice: size mismatch"
        );
        for (cell, v) in self.data.iter().zip(values) {
            cell.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Resident size in bytes (used by the memory tracker).
    pub fn bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<AtomicU32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn roundtrip_row() {
        let a = HogwildArray::zeros(3, 4);
        a.write_row(1, &[1.0, 2.0, 3.0, 4.0]);
        let mut buf = [0.0; 4];
        a.read_row_into(1, &mut buf);
        assert_eq!(buf, [1.0, 2.0, 3.0, 4.0]);
        // other rows untouched
        a.read_row_into(0, &mut buf);
        assert_eq!(buf, [0.0; 4]);
    }

    #[test]
    fn from_vec_and_to_vec() {
        let a = HogwildArray::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.to_vec(), vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.get(1, 0), 3.0);
    }

    #[test]
    fn add_to_row_accumulates() {
        let a = HogwildArray::zeros(1, 2);
        a.add_to_row(0, 2.0, &[1.0, 10.0]);
        a.add_to_row(0, 1.0, &[0.5, 0.5]);
        assert_eq!(a.to_vec(), vec![2.5, 20.5]);
    }

    #[test]
    fn fetch_add_returns_previous() {
        let a = HogwildArray::zeros(1, 1);
        assert_eq!(a.fetch_add(0, 0, 1.5), 0.0);
        assert_eq!(a.fetch_add(0, 0, 1.0), 1.5);
        assert_eq!(a.get(0, 0), 2.5);
    }

    #[test]
    fn fetch_add_concurrent_loses_nothing() {
        let a = Arc::new(HogwildArray::zeros(1, 1));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let a = Arc::clone(&a);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        a.fetch_add(0, 0, 1.0);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(a.get(0, 0), 8000.0);
    }

    #[test]
    fn concurrent_row_writes_never_tear() {
        // Two threads write distinct constant rows; any interleaving must
        // leave each element equal to one of the written constants.
        let a = Arc::new(HogwildArray::zeros(1, 64));
        let w1 = {
            let a = Arc::clone(&a);
            std::thread::spawn(move || {
                let row = vec![1.0f32; 64];
                for _ in 0..500 {
                    a.write_row(0, &row);
                }
            })
        };
        let w2 = {
            let a = Arc::clone(&a);
            std::thread::spawn(move || {
                let row = vec![2.0f32; 64];
                for _ in 0..500 {
                    a.write_row(0, &row);
                }
            })
        };
        w1.join().unwrap();
        w2.join().unwrap();
        for v in a.to_vec() {
            assert!(v == 1.0 || v == 2.0, "torn value {v}");
        }
    }

    #[test]
    fn prefetch_leaves_contents_alone() {
        // rows of 3 floats straddle cache lines; out-of-range rows are
        // ignored rather than rejected
        let a = HogwildArray::from_vec(4, 3, (0..12).map(|v| v as f32).collect());
        for row in 0..6 {
            a.prefetch_row(row);
        }
        assert_eq!(a.to_vec(), (0..12).map(|v| v as f32).collect::<Vec<_>>());
    }

    #[test]
    fn bytes_accounting() {
        let a = HogwildArray::zeros(10, 100);
        assert_eq!(a.bytes(), 4000);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_read_panics() {
        let a = HogwildArray::zeros(1, 1);
        a.get(1, 0);
    }
}
