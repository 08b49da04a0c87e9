//! Token markings.

use crate::model::PlaceId;
use std::borrow::Borrow;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Index;

/// A marking assigns a token count to every place of a net.
///
/// Markings are small, hashable value types; the reachability explorer and
/// the simulator both use them as state identifiers.
///
/// ```
/// use mvml_petri::NetBuilder;
///
/// let mut b = NetBuilder::new("demo");
/// let p = b.place("p", 2);
/// let net = b.build().unwrap();
/// assert_eq!(net.initial_marking()[p], 2);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Marking(Box<[u32]>);

impl Marking {
    /// Creates a marking from explicit token counts.
    pub fn new(tokens: impl Into<Vec<u32>>) -> Self {
        Marking(tokens.into().into_boxed_slice())
    }

    /// Number of places covered by this marking.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Returns `true` if the marking covers no places.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Token count of `place`.
    ///
    /// # Panics
    ///
    /// Panics if `place` is out of range for this marking.
    pub fn tokens(&self, place: PlaceId) -> u32 {
        self.0[place.index()]
    }

    /// Total number of tokens across all places.
    pub fn total_tokens(&self) -> u64 {
        self.0.iter().map(|&t| u64::from(t)).sum()
    }

    /// Iterates over `(place index, token count)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, u32)> + '_ {
        self.0.iter().copied().enumerate()
    }

    /// Raw token counts, indexed by place index.
    pub fn as_slice(&self) -> &[u32] {
        &self.0
    }

    pub(crate) fn set(&mut self, place: usize, tokens: u32) {
        self.0[place] = tokens;
    }

    pub(crate) fn get(&self, place: usize) -> u32 {
        self.0[place]
    }

    /// Overwrites this marking with `other`'s token counts, in place.
    pub(crate) fn copy_from(&mut self, other: &Marking) {
        self.0.copy_from_slice(&other.0);
    }
}

/// Lets marking-keyed maps be probed with a scratch marking's raw token
/// counts; hashing and equality agree because both are those of the slice.
impl Borrow<[u32]> for Marking {
    fn borrow(&self) -> &[u32] {
        &self.0
    }
}

/// A small std-only hasher for the lookup-only marking maps (the
/// reachability interning index and vanishing memo, the solution index).
///
/// Token counts are folded in 64-bit words by rotate–xor–multiply, much
/// cheaper than the default SipHash over a ~40-place marking. The maps that
/// use it are never iterated, so hash order cannot reach any result, and
/// their keys are markings the explorer generated, not outside input.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct MarkingHasher(u64);

/// [`std::hash::BuildHasher`] for [`MarkingHasher`].
pub(crate) type MarkingHash = BuildHasherDefault<MarkingHasher>;

impl MarkingHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for MarkingHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        // The multiply mixes upward; rotate the well-mixed high bits down to
        // where the table takes its bucket index.
        self.0.rotate_left(26)
    }
}

impl Index<PlaceId> for Marking {
    type Output = u32;

    fn index(&self, place: PlaceId) -> &u32 {
        &self.0[place.index()]
    }
}

impl fmt::Debug for Marking {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Marking{:?}", &self.0)
    }
}

impl fmt::Display for Marking {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, t) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<u32>> for Marking {
    fn from(tokens: Vec<u32>) -> Self {
        Marking::new(tokens)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let m = Marking::new(vec![1, 0, 3]);
        assert_eq!(m.len(), 3);
        assert!(!m.is_empty());
        assert_eq!(m.total_tokens(), 4);
        assert_eq!(m.as_slice(), &[1, 0, 3]);
        let pairs: Vec<_> = m.iter().collect();
        assert_eq!(pairs, vec![(0, 1), (1, 0), (2, 3)]);
    }

    #[test]
    fn display_and_debug() {
        let m = Marking::new(vec![2, 1]);
        assert_eq!(m.to_string(), "(2,1)");
        assert_eq!(format!("{m:?}"), "Marking[2, 1]");
    }

    #[test]
    fn equality_and_hash_are_structural() {
        use std::collections::HashSet;
        let a = Marking::new(vec![1, 2]);
        let b = Marking::new(vec![1, 2]);
        let c = Marking::new(vec![2, 1]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
        assert!(!set.contains(&c));
    }

    #[test]
    fn empty_marking() {
        let m = Marking::new(Vec::new());
        assert!(m.is_empty());
        assert_eq!(m.total_tokens(), 0);
        assert_eq!(m.to_string(), "()");
    }
}
