//! Dense slab arenas with generation-tagged ids for the kernel's hot
//! state.
//!
//! The kernel allocates and frees messages and multicast operations at
//! every injection and absorption. An [`Arena`] keeps them in dense
//! storage with LIFO slot reuse (allocation order feeds every downstream
//! ordering, so it is part of the bit-identical contract):
//!
//! * values live in a plain `Vec<T>` — no `Option` discriminant to
//!   branch on in the inner loops — while each slot's one-byte meta tag
//!   (odd = live, even = free; bumped on every transition) sits in a
//!   dense sidecar — a few KB that stays cache-hot — so validation is a
//!   single byte compare that costs no value-array bandwidth, and
//! * ids carry the slot's tag, so an access through a stale id (a kernel
//!   bug) panics with the violated invariant by name instead of
//!   returning a recycled stranger's state.
//!
//! Ids are plain `u32` ([`Arena::INDEX_BITS`] low bits of slot index,
//! 8 wrapping tag bits above), so `MsgId`/`OpId` and every structure
//! holding them (`CvState` owners and waiters, the move list) stay
//! word-sized. The tag wraps after 128 reuse cycles of one slot; within
//! that window every stale access is caught.

/// A slab arena of `T` addressed by generation-tagged `u32` ids.
#[derive(Clone, Debug, Default)]
pub struct Arena<T> {
    /// Slot values. A freed slot's value stays in place (dropped lazily,
    /// on reuse) so the array is always fully initialized.
    values: Vec<T>,
    /// Per-slot liveness/generation tags: odd = live, even = free;
    /// incremented (wrapping) on insert into a reused slot and on free,
    /// so a live id's tag matches iff the slot still holds the value it
    /// was issued for.
    metas: Vec<u8>,
    /// Freed slot indices, reused LIFO.
    free: Vec<u32>,
}

impl<T> Arena<T> {
    /// Low bits of an id holding the slot index; the remaining high bits
    /// hold the slot tag.
    pub const INDEX_BITS: u32 = 24;

    const INDEX_MASK: u32 = (1 << Self::INDEX_BITS) - 1;

    /// An empty arena with room for `cap` values before reallocating.
    pub fn with_capacity(cap: usize) -> Self {
        Arena {
            values: Vec::with_capacity(cap),
            metas: Vec::with_capacity(cap),
            free: Vec::new(),
        }
    }

    /// Number of live values.
    pub fn len(&self) -> usize {
        self.values.len() - self.free.len()
    }

    /// Any live values?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    fn index(id: u32) -> usize {
        (id & Self::INDEX_MASK) as usize
    }

    #[inline]
    fn tag(id: u32) -> u8 {
        (id >> Self::INDEX_BITS) as u8
    }

    #[inline]
    fn id_of(index: usize, tag: u8) -> u32 {
        ((tag as u32) << Self::INDEX_BITS) | index as u32
    }

    /// Insert a value; returns its generation-tagged id. Freed slots are
    /// reused LIFO before the arena grows.
    pub fn insert(&mut self, value: T) -> u32 {
        if let Some(idx) = self.free.pop() {
            let i = idx as usize;
            debug_assert_eq!(self.metas[i] & 1, 0, "free list holds a live slot");
            let tag = self.metas[i].wrapping_add(1); // even -> odd: live
            self.metas[i] = tag;
            self.values[i] = value;
            Arena::<T>::id_of(i, tag)
        } else {
            let i = self.values.len();
            assert!(
                i < Self::INDEX_MASK as usize,
                "arena overflow: more than 2^{} live slots",
                Self::INDEX_BITS
            );
            self.values.push(value);
            self.metas.push(1);
            Arena::<T>::id_of(i, 1)
        }
    }

    /// Free the slot behind `id`. The value itself is dropped lazily, on
    /// slot reuse — freeing stays off the hot path's drop glue.
    ///
    /// # Panics
    ///
    /// Panics (naming `what`) when `id` is stale or already free.
    pub fn free(&mut self, id: u32, what: &str) {
        let i = self.check(id, what);
        self.metas[i] = self.metas[i].wrapping_add(1); // odd -> even: free
        self.free.push(i as u32);
    }

    /// The live value behind `id`.
    ///
    /// # Panics
    ///
    /// Panics (naming `what`) when `id` is stale or freed — arena
    /// corruption surfaces as a diagnosable invariant violation instead
    /// of an `Option::unwrap` on `None` or a recycled value.
    #[inline]
    pub fn get(&self, id: u32, what: &str) -> &T {
        let i = self.check(id, what);
        &self.values[i]
    }

    /// Mutable access to the live value behind `id`.
    ///
    /// # Panics
    ///
    /// Panics (naming `what`) when `id` is stale or freed.
    #[inline]
    pub fn get_mut(&mut self, id: u32, what: &str) -> &mut T {
        let i = self.check(id, what);
        &mut self.values[i]
    }

    /// The value behind `id`, or `None` when the id is stale or freed —
    /// for callers probing liveness rather than asserting it.
    #[inline]
    pub fn try_get(&self, id: u32) -> Option<&T> {
        let i = Arena::<T>::index(id);
        match self.metas.get(i) {
            Some(&meta) if meta == Arena::<T>::tag(id) => Some(&self.values[i]),
            _ => None,
        }
    }

    /// Iterate over the live `(id, value)` pairs in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &T)> {
        self.metas
            .iter()
            .zip(self.values.iter())
            .enumerate()
            .filter(|(_, (&meta, _))| meta & 1 == 1)
            .map(|(i, (&meta, value))| (Arena::<T>::id_of(i, meta), value))
    }

    /// Validate `id` and return its slot index, panicking with the
    /// violated invariant by name otherwise. Live ids always carry an odd
    /// tag, so one byte compare covers both liveness and staleness.
    #[inline]
    fn check(&self, id: u32, what: &str) -> usize {
        let i = Arena::<T>::index(id);
        match self.metas.get(i) {
            Some(&meta) if meta == Arena::<T>::tag(id) => i,
            _ => self.bad_id(id, what),
        }
    }

    #[cold]
    #[inline(never)]
    fn bad_id(&self, id: u32, what: &str) -> ! {
        let i = Arena::<T>::index(id);
        let state = match self.metas.get(i) {
            None => "beyond the arena".to_string(),
            Some(&meta) if meta & 1 == 0 => format!("freed (slot tag {meta})"),
            Some(&meta) => format!("recycled (slot tag {meta})"),
        };
        panic!(
            "arena invariant violated: {what} references id {id} \
             (slot {i}, tag {}) but the slot is {state}",
            Arena::<T>::tag(id),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_free_roundtrip() {
        let mut a = Arena::default();
        let x = a.insert("x");
        let y = a.insert("y");
        assert_eq!(a.len(), 2);
        assert_eq!(*a.get(x, "test"), "x");
        assert_eq!(*a.get(y, "test"), "y");
        *a.get_mut(x, "test") = "x2";
        assert_eq!(*a.get(x, "test"), "x2");
        a.free(x, "test");
        assert_eq!(a.len(), 1);
        assert!(a.try_get(x).is_none());
        assert!(a.try_get(y).is_some());
    }

    #[test]
    fn slots_are_reused_lifo_with_fresh_generations() {
        let mut a = Arena::default();
        let x = a.insert(1u32);
        let y = a.insert(2);
        a.free(y, "test");
        a.free(x, "test");
        // LIFO: x's slot (freed last) is handed out first.
        let z = a.insert(3);
        assert_eq!(
            z & ((1 << Arena::<u32>::INDEX_BITS) - 1),
            x & ((1 << Arena::<u32>::INDEX_BITS) - 1)
        );
        assert_ne!(z, x, "the reused slot carries a new generation");
        assert!(a.try_get(x).is_none());
        assert_eq!(*a.get(z, "test"), 3);
    }

    #[test]
    fn iter_visits_exactly_the_live_values() {
        let mut a = Arena::default();
        let ids: Vec<u32> = (0..5).map(|v| a.insert(v)).collect();
        a.free(ids[1], "test");
        a.free(ids[3], "test");
        let seen: Vec<(u32, u32)> = a.iter().map(|(id, &v)| (id, v)).collect();
        assert_eq!(seen, vec![(ids[0], 0), (ids[2], 2), (ids[4], 4)]);
    }

    #[test]
    #[should_panic(expected = "arena invariant violated")]
    fn stale_id_access_names_the_invariant() {
        let mut a = Arena::default();
        let x = a.insert(7u8);
        a.free(x, "test");
        let _ = a.insert(8); // reuses the slot under a new generation
        let _ = a.get(x, "stale-owner");
    }

    #[test]
    #[should_panic(expected = "arena invariant violated")]
    fn double_free_names_the_invariant() {
        let mut a = Arena::default();
        let x = a.insert(7u8);
        a.free(x, "double-free");
        a.free(x, "double-free");
    }
}
