//! A bounded ring buffer with explicit backpressure.
//!
//! The streaming engine keeps every queue *bounded*: a full
//! ring rejects the push and hands the item back instead of growing,
//! so resident memory is capped by construction and producers see the
//! backpressure directly ([`RingBuffer::push`] returns `Err`).

/// Fixed-capacity FIFO ring buffer.
///
/// Backed by a `Vec<Option<T>>` with a head index and length; push and
/// pop are O(1) and the storage never reallocates after construction.
///
/// ```
/// use sid_stream::RingBuffer;
///
/// let mut ring = RingBuffer::with_capacity(2);
/// ring.push(1).unwrap();
/// ring.push(2).unwrap();
/// assert_eq!(ring.push(3), Err(3)); // full: backpressure, item returned
/// assert_eq!(ring.pop(), Some(1));  // FIFO order
/// ring.push(3).unwrap();            // freed slot reused (wraparound)
/// assert_eq!(ring.pop(), Some(2));
/// assert_eq!(ring.pop(), Some(3));
/// assert_eq!(ring.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct RingBuffer<T> {
    slots: Vec<Option<T>>,
    /// Index of the oldest element (next to pop).
    head: usize,
    len: usize,
}

impl<T> RingBuffer<T> {
    /// Creates an empty ring holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be at least 1");
        RingBuffer {
            slots: (0..capacity).map(|_| None).collect(),
            head: 0,
            len: 0,
        }
    }

    /// The fixed capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Items currently buffered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the ring holds no items.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the next push would be rejected.
    pub fn is_full(&self) -> bool {
        self.len == self.capacity()
    }

    /// Free slots remaining.
    pub fn free(&self) -> usize {
        self.capacity() - self.len
    }

    /// Appends `item`, or returns it back as `Err` when the ring is
    /// full — the caller decides whether to drop, block or flush.
    pub fn push(&mut self, item: T) -> Result<(), T> {
        if self.is_full() {
            return Err(item);
        }
        let tail = (self.head + self.len) % self.capacity();
        self.slots[tail] = Some(item);
        self.len += 1;
        Ok(())
    }

    /// Removes and returns the oldest item.
    pub fn pop(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        let item = self.slots[self.head].take();
        self.head = (self.head + 1) % self.capacity();
        self.len -= 1;
        debug_assert!(item.is_some(), "occupied slot was empty");
        item
    }

    /// Pops every buffered item into `out` (oldest → newest), returning
    /// how many were moved.
    ///
    /// Equivalent to `while let Some(x) = ring.pop() { out.push(x) }` but
    /// lets the hot path drain a whole backlog in one call against a
    /// caller-owned, reusable buffer.
    pub fn drain_into(&mut self, out: &mut Vec<T>) -> usize {
        let moved = self.len;
        out.reserve(moved);
        while let Some(item) = self.pop() {
            out.push(item);
        }
        moved
    }

    /// Drops all buffered items, keeping the capacity.
    pub fn clear(&mut self) {
        for slot in &mut self.slots {
            *slot = None;
        }
        self.head = 0;
        self.len = 0;
    }

    /// Iterates the buffered items oldest → newest.
    pub fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        (0..self.len).map(move |i| {
            let idx = (self.head + i) % self.capacity();
            self.slots[idx].as_ref().expect("occupied slot")
        })
    }
}

impl<T: Clone> RingBuffer<T> {
    /// Copies the buffered items oldest → newest (snapshot support).
    pub fn to_vec(&self) -> Vec<T> {
        self.iter().cloned().collect()
    }

    /// Rebuilds a ring of `capacity` pre-filled with `items` in order
    /// (snapshot restore).
    ///
    /// # Panics
    ///
    /// Panics if `items` exceeds `capacity` or `capacity` is zero.
    pub fn from_items(capacity: usize, items: &[T]) -> Self {
        assert!(
            items.len() <= capacity,
            "{} items exceed ring capacity {capacity}",
            items.len()
        );
        let mut ring = RingBuffer::with_capacity(capacity);
        for item in items {
            let pushed = ring.push(item.clone());
            debug_assert!(pushed.is_ok());
        }
        ring
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_is_preserved() {
        let mut ring = RingBuffer::with_capacity(4);
        for i in 0..4 {
            ring.push(i).unwrap();
        }
        for i in 0..4 {
            assert_eq!(ring.pop(), Some(i));
        }
        assert_eq!(ring.pop(), None);
    }

    #[test]
    fn wraparound_over_many_laps_keeps_order_and_bounds() {
        // A capacity-3 ring driven through hundreds of push/pop cycles:
        // the head index wraps repeatedly, order and occupancy must hold.
        let mut ring = RingBuffer::with_capacity(3);
        let mut next_in = 0u32;
        let mut next_out = 0u32;
        for lap in 0..200 {
            // Alternate fill levels so the head lands on every slot.
            let burst = 1 + (lap % 3);
            for _ in 0..burst {
                if ring.push(next_in).is_ok() {
                    next_in += 1;
                }
                assert!(ring.len() <= ring.capacity());
            }
            while let Some(got) = ring.pop() {
                assert_eq!(got, next_out);
                next_out += 1;
            }
        }
        assert_eq!(next_in, next_out, "every pushed item was popped once");
        assert!(next_in > 300, "the test actually cycled the ring");
    }

    #[test]
    fn full_ring_rejects_and_returns_the_item() {
        let mut ring = RingBuffer::with_capacity(2);
        ring.push("a").unwrap();
        ring.push("b").unwrap();
        assert!(ring.is_full());
        assert_eq!(ring.push("c"), Err("c"));
        // Rejection changed nothing.
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.pop(), Some("a"));
        assert_eq!(ring.free(), 1);
        ring.push("c").unwrap();
        assert_eq!(ring.to_vec(), vec!["b", "c"]);
    }

    #[test]
    fn snapshot_round_trip_mid_wrap() {
        // Put the ring into a wrapped state (head != 0), snapshot, and
        // rebuild: contents and order must survive.
        let mut ring = RingBuffer::with_capacity(4);
        for i in 0..4 {
            ring.push(i).unwrap();
        }
        ring.pop();
        ring.pop();
        ring.push(4).unwrap(); // physically wraps to slot 0
        let items = ring.to_vec();
        assert_eq!(items, vec![2, 3, 4]);
        let mut rebuilt = RingBuffer::from_items(4, &items);
        assert_eq!(rebuilt.len(), 3);
        for want in [2, 3, 4] {
            assert_eq!(rebuilt.pop(), Some(want));
        }
    }

    #[test]
    fn drain_into_empties_in_fifo_order_and_appends() {
        let mut ring = RingBuffer::with_capacity(4);
        for i in 0..4 {
            ring.push(i).unwrap();
        }
        ring.pop();
        ring.push(4).unwrap(); // wrapped state
        let mut out = vec![-1];
        assert_eq!(ring.drain_into(&mut out), 4);
        assert_eq!(out, vec![-1, 1, 2, 3, 4]);
        assert!(ring.is_empty());
        assert_eq!(ring.drain_into(&mut out), 0);
    }

    #[test]
    fn clear_resets_but_keeps_capacity() {
        let mut ring = RingBuffer::with_capacity(2);
        ring.push(1).unwrap();
        ring.clear();
        assert!(ring.is_empty());
        assert_eq!(ring.capacity(), 2);
        ring.push(7).unwrap();
        assert_eq!(ring.pop(), Some(7));
    }

    #[test]
    #[should_panic(expected = "capacity must be at least 1")]
    fn zero_capacity_is_rejected() {
        let _ = RingBuffer::<u8>::with_capacity(0);
    }
}
