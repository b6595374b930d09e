//! Binary Merkle tree over transaction digests.
//!
//! Blocks commit to their transaction set with a Merkle root; the
//! [`MerkleProof`] type lets a light observer verify that a specific
//! transaction (say, their own masked update) was included in a block
//! without downloading the whole block — part of the paper's transparency
//! story.

use crate::hash::Hash32;

/// A Merkle tree built over a list of leaf digests.
#[derive(Debug, Clone)]
pub struct MerkleTree {
    /// Levels bottom-up: `levels[0]` are the leaves, last level is the root.
    levels: Vec<Vec<Hash32>>,
}

/// An inclusion proof for one leaf.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MerkleProof {
    /// Index of the proven leaf.
    pub leaf_index: usize,
    /// Sibling hashes bottom-up, each tagged with whether the sibling is
    /// on the right (`true`) of the running hash.
    pub siblings: Vec<(Hash32, bool)>,
}

impl MerkleTree {
    /// Builds a tree. An empty leaf set gets the conventional all-zero
    /// root (a block with no transactions).
    pub fn build(leaves: &[Hash32]) -> Self {
        if leaves.is_empty() {
            return Self {
                levels: vec![vec![Hash32::ZERO]],
            };
        }
        let mut levels = vec![leaves.to_vec()];
        while levels.last().expect("non-empty").len() > 1 {
            let prev = levels.last().expect("non-empty");
            let mut next = Vec::with_capacity(prev.len().div_ceil(2));
            for pair in prev.chunks(2) {
                let combined = match pair {
                    [l, r] => Hash32::combine(l, r),
                    // Odd node: promote by hashing with itself, the
                    // Bitcoin convention.
                    [l] => Hash32::combine(l, l),
                    _ => unreachable!("chunks(2) yields 1- or 2-element slices"),
                };
                next.push(combined);
            }
            levels.push(next);
        }
        Self { levels }
    }

    /// The root digest.
    pub fn root(&self) -> Hash32 {
        self.levels.last().expect("tree always has a root")[0]
    }

    /// Produces an inclusion proof for leaf `index`.
    ///
    /// Returns `None` if the index is out of range.
    pub fn prove(&self, index: usize) -> Option<MerkleProof> {
        if index >= self.levels[0].len() {
            return None;
        }
        let mut siblings = Vec::new();
        let mut i = index;
        for level in &self.levels[..self.levels.len() - 1] {
            let sibling_index = i ^ 1;
            let sibling = if sibling_index < level.len() {
                level[sibling_index]
            } else {
                level[i] // odd promotion hashes with itself
            };
            let sibling_is_right = i.is_multiple_of(2);
            siblings.push((sibling, sibling_is_right));
            i /= 2;
        }
        Some(MerkleProof {
            leaf_index: index,
            siblings,
        })
    }
}

impl MerkleProof {
    /// Verifies that `leaf` is included under `root`.
    pub fn verify(&self, leaf: &Hash32, root: &Hash32) -> bool {
        let mut acc = *leaf;
        for (sibling, sibling_is_right) in &self.siblings {
            acc = if *sibling_is_right {
                Hash32::combine(&acc, sibling)
            } else {
                Hash32::combine(sibling, &acc)
            };
        }
        acc == *root
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn leaves(n: usize) -> Vec<Hash32> {
        (0..n)
            .map(|i| Hash32::of_bytes(&(i as u64).to_le_bytes()))
            .collect()
    }

    #[test]
    fn empty_tree_zero_root() {
        assert_eq!(MerkleTree::build(&[]).root(), Hash32::ZERO);
    }

    #[test]
    fn single_leaf_root_is_leaf() {
        let l = leaves(1);
        assert_eq!(MerkleTree::build(&l).root(), l[0]);
    }

    #[test]
    fn two_leaves_root_is_combination() {
        let l = leaves(2);
        assert_eq!(MerkleTree::build(&l).root(), Hash32::combine(&l[0], &l[1]));
    }

    #[test]
    fn root_depends_on_every_leaf() {
        let l = leaves(5);
        let base = MerkleTree::build(&l).root();
        for i in 0..5 {
            let mut tampered = l.clone();
            tampered[i] = Hash32::of_bytes(b"tampered");
            assert_ne!(MerkleTree::build(&tampered).root(), base, "leaf {i}");
        }
    }

    #[test]
    fn root_depends_on_order() {
        let l = leaves(4);
        let mut rev = l.clone();
        rev.reverse();
        assert_ne!(MerkleTree::build(&l).root(), MerkleTree::build(&rev).root());
    }

    #[test]
    fn proofs_verify_for_all_sizes() {
        for n in 1..=9 {
            let l = leaves(n);
            let tree = MerkleTree::build(&l);
            for (i, leaf) in l.iter().enumerate() {
                let proof = tree.prove(i).expect("index in range");
                assert!(proof.verify(leaf, &tree.root()), "size {n}, leaf {i}");
            }
        }
    }

    #[test]
    fn proof_rejects_wrong_leaf() {
        let l = leaves(4);
        let tree = MerkleTree::build(&l);
        let proof = tree.prove(2).unwrap();
        assert!(!proof.verify(&l[1], &tree.root()));
        assert!(!proof.verify(&Hash32::of_bytes(b"bogus"), &tree.root()));
    }

    #[test]
    fn proof_rejects_wrong_root() {
        let l = leaves(4);
        let tree = MerkleTree::build(&l);
        let proof = tree.prove(0).unwrap();
        assert!(!proof.verify(&l[0], &Hash32::of_bytes(b"other root")));
    }

    #[test]
    fn out_of_range_proof_is_none() {
        assert!(MerkleTree::build(&leaves(3)).prove(3).is_none());
    }

    proptest! {
        #[test]
        fn prop_all_proofs_verify(n in 1usize..40, pick in 0usize..40) {
            let pick = pick % n;
            let l = leaves(n);
            let tree = MerkleTree::build(&l);
            let proof = tree.prove(pick).unwrap();
            prop_assert!(proof.verify(&l[pick], &tree.root()));
        }

        #[test]
        fn prop_cross_leaf_proofs_fail(n in 2usize..20, a in 0usize..20, b in 0usize..20) {
            let (a, b) = (a % n, b % n);
            prop_assume!(a != b);
            let l = leaves(n);
            let tree = MerkleTree::build(&l);
            let proof = tree.prove(a).unwrap();
            prop_assert!(!proof.verify(&l[b], &tree.root()));
        }
    }
}
