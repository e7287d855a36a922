//! A dense vector of instruction-keyed items with O(1) membership and
//! removal.
//!
//! Items live contiguously in `items`; `pos` maps each [`InstId`] to its
//! index there. Removal is `Vec::swap_remove` (the last item moves into
//! the hole) with the moved item's index patched, so the physical order
//! of `items` is exactly what a plain `Vec` driven by
//! `position` + `swap_remove` would hold — the issue queue relies on
//! that to keep its slot order.

use crate::types::InstId;

const ABSENT: u32 = u32::MAX;

/// Items that carry the instruction id they are keyed by.
pub(crate) trait Keyed: Copy {
    fn key(&self) -> InstId;
}

impl Keyed for InstId {
    fn key(&self) -> InstId {
        *self
    }
}

#[derive(Debug)]
pub(crate) struct DenseSet<T> {
    items: Vec<T>,
    /// `pos[id]` is the index of `id`'s item in `items`, or `ABSENT`.
    pos: Vec<u32>,
}

impl<T> Default for DenseSet<T> {
    fn default() -> Self {
        DenseSet {
            items: Vec::new(),
            pos: Vec::new(),
        }
    }
}

impl<T: Keyed> DenseSet<T> {
    pub fn with_capacity(capacity: usize) -> Self {
        DenseSet {
            items: Vec::with_capacity(capacity),
            pos: Vec::new(),
        }
    }

    /// Build from items in a given order; `Err(id)` names the first
    /// duplicate key.
    pub fn from_items(items: Vec<T>) -> Result<Self, InstId> {
        let mut set = DenseSet {
            items: Vec::with_capacity(items.capacity()),
            pos: Vec::new(),
        };
        for item in items {
            if set.contains(item.key()) {
                return Err(item.key());
            }
            set.push(item);
        }
        Ok(set)
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.items
    }

    #[inline]
    pub fn contains(&self, id: InstId) -> bool {
        self.pos.get(id).is_some_and(|&p| p != ABSENT)
    }

    /// The item keyed `id`, if present.
    #[inline]
    pub fn get(&self, id: InstId) -> Option<&T> {
        match self.pos.get(id) {
            Some(&p) if p != ABSENT => Some(&self.items[p as usize]),
            _ => None,
        }
    }

    /// Append `item`. Its key must not be present.
    #[inline]
    pub fn push(&mut self, item: T) {
        let id = item.key();
        debug_assert!(!self.contains(id), "duplicate key {id}");
        if id >= self.pos.len() {
            self.pos.resize(id + 1, ABSENT);
        }
        self.pos[id] = self.items.len() as u32;
        self.items.push(item);
    }

    /// Remove the item keyed `id` by `swap_remove`; `None` if absent.
    #[inline]
    pub fn remove(&mut self, id: InstId) -> Option<T> {
        let slot = self.pos.get_mut(id)?;
        let p = std::mem::replace(slot, ABSENT);
        if p == ABSENT {
            return None;
        }
        let item = self.items.swap_remove(p as usize);
        if let Some(moved) = self.items.get(p as usize) {
            self.pos[moved.key()] = p;
        }
        Some(item)
    }

    pub fn clear(&mut self) {
        for item in &self.items {
            self.pos[item.key()] = ABSENT;
        }
        self.items.clear();
    }

    /// Check that the index and the items agree; returns a diagnostic
    /// naming the first disagreement.
    pub fn check_index(&self) -> Result<(), String> {
        for (i, item) in self.items.iter().enumerate() {
            let id = item.key();
            if self.pos.get(id) != Some(&(i as u32)) {
                return Err(format!(
                    "index maps id {id} to {:?}, but it sits at slot {i}",
                    self.pos.get(id)
                ));
            }
        }
        let indexed = self.pos.iter().filter(|&&p| p != ABSENT).count();
        if indexed != self.items.len() {
            return Err(format!(
                "index holds {indexed} ids for {} items",
                self.items.len()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn removal_matches_vec_swap_remove_order() {
        let mut set = DenseSet::with_capacity(8);
        let mut reference: Vec<InstId> = Vec::new();
        for id in [4, 9, 2, 7, 5, 11] {
            set.push(id);
            reference.push(id);
        }
        for id in [9, 11, 4] {
            let p = reference.iter().position(|&e| e == id).unwrap();
            reference.swap_remove(p);
            assert_eq!(set.remove(id), Some(id));
            assert_eq!(set.as_slice(), reference.as_slice());
            set.check_index().unwrap();
        }
        assert_eq!(set.remove(9), None);
        assert_eq!(set.remove(1000), None);
        assert!(set.contains(7) && !set.contains(9));
        set.clear();
        assert_eq!(set.len(), 0);
        assert!(!set.contains(7));
        set.check_index().unwrap();
    }

    #[test]
    fn from_items_keeps_order_and_rejects_duplicates() {
        let set = DenseSet::from_items(vec![3usize, 1, 8]).unwrap();
        assert_eq!(set.as_slice(), &[3, 1, 8]);
        assert_eq!(set.get(8), Some(&8));
        set.check_index().unwrap();
        assert_eq!(DenseSet::from_items(vec![3usize, 1, 3]).unwrap_err(), 3);
    }
}
