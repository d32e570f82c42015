//! The set-cover routine (paper Algorithm 3, `CheckCover`).
//!
//! After every matching round, WMA asks: do the top-`k` candidate facilities
//! — ranked by how many *still-uncovered* customers they are currently
//! assigned — cover every customer? The ranking is computed lazily: a heap
//! holds cached marginal gains; a popped facility whose gain went stale is
//! re-inserted with its fresh gain (the classic lazy-greedy trick the paper's
//! pseudocode spells out in lines 8–12).
//!
//! Ties between equal marginal gains are broken toward the facility selected
//! *least recently* in earlier iterations — the paper's diversification
//! strategy against local minima (Section IV-A) — and then by facility index
//! for determinism.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Result of one `CheckCover` invocation.
#[derive(Clone, Debug)]
pub struct CoverOutcome {
    /// Selected facility indices, in selection order (`|selected| ≤ k`).
    pub selected: Vec<u32>,
    /// Per-customer coverage by the selected set.
    pub covered: Vec<bool>,
    /// Whether every customer is covered.
    pub all_covered: bool,
}

/// Greedily select up to `k` facilities maximizing covered customers.
///
/// * `sigma(j)` — the customers currently assigned to facility `j` (the
///   paper's `σ_j(G_b)`); a customer may appear under several facilities
///   while its demand exceeds one. An accessor rather than a list, so the
///   caller's own holder lists are read in place: WMA passes the matcher's
///   [`holders_of`](mcfs_flow::Matcher::holders_of), WMA-Naive its
///   incrementally built σ.
/// * `num_customers` — `m`.
/// * `last_selected[j]` — iteration at which `j` was last part of the
///   selected set (0 = never); feeds the tie-break. Its length is the
///   number of facilities `ℓ`.
///
/// Facilities with zero marginal gain are never selected, so fewer than `k`
/// facilities may be returned — that is the `|F| < k` special case Algorithm
/// 1 hands to `SelectGreedy`.
pub fn check_cover<I>(
    sigma: impl Fn(usize) -> I,
    num_customers: usize,
    k: usize,
    last_selected: &[u64],
) -> CoverOutcome
where
    I: ExactSizeIterator<Item = u32>,
{
    let mut covered = vec![false; num_customers];
    let mut selected = Vec::with_capacity(k);

    // Heap entries: (cached gain, Reverse(last_selected), Reverse(facility)).
    // BinaryHeap is a max-heap, so this pops highest gain first, then least
    // recently selected, then smallest index.
    let mut heap: BinaryHeap<(u64, Reverse<u64>, Reverse<u32>)> = last_selected
        .iter()
        .enumerate()
        .filter_map(|(j, &last)| {
            let holders = sigma(j).len() as u64;
            (holders > 0).then_some((holders, Reverse(last), Reverse(j as u32)))
        })
        .collect();

    while selected.len() < k {
        let Some((cached, ts, Reverse(j))) = heap.pop() else {
            break;
        };
        let fresh = sigma(j as usize).filter(|&c| !covered[c as usize]).count() as u64;
        if fresh == 0 {
            continue; // nothing left to gain from this facility
        }
        if fresh != cached {
            heap.push((fresh, ts, Reverse(j)));
            continue; // stale; re-rank
        }
        selected.push(j);
        for c in sigma(j as usize) {
            covered[c as usize] = true;
        }
    }

    let all_covered = covered.iter().all(|&b| b);
    CoverOutcome {
        selected,
        covered,
        all_covered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `check_cover` over σ held as plain lists, WMA-Naive's shape.
    fn cover(sigma: &[Vec<u32>], m: usize, k: usize, last: &[u64]) -> CoverOutcome {
        check_cover(|j| sigma[j].iter().copied(), m, k, last)
    }

    #[test]
    fn selects_biggest_first() {
        let sigma = vec![vec![0, 1], vec![2], vec![0, 1, 2]];
        let out = cover(&sigma, 3, 1, &[0, 0, 0]);
        assert_eq!(out.selected, vec![2]);
        assert!(out.all_covered);
    }

    #[test]
    fn marginal_gains_are_lazy_but_fresh() {
        // Facility 0 covers {0,1}; facility 1 covers {1,2}; facility 2 = {3}.
        // After picking 0, facility 1's gain drops to 1 — same as 2's, and
        // ties break toward smaller index, so 1 is picked next.
        let sigma = vec![vec![0, 1], vec![1, 2], vec![3]];
        let out = cover(&sigma, 4, 2, &[0, 0, 0]);
        assert_eq!(out.selected, vec![0, 1]);
        assert_eq!(out.covered, vec![true, true, true, false]);
        assert!(!out.all_covered);
    }

    #[test]
    fn tie_break_prefers_least_recently_selected() {
        // Equal gains; facility 1 was selected more recently than 0 and 2.
        let sigma = vec![vec![0], vec![1], vec![2]];
        let out = cover(&sigma, 3, 1, &[5, 9, 5]);
        // Ties on gain=1: last_selected 5 beats 9; index 0 beats 2.
        assert_eq!(out.selected, vec![0]);
    }

    #[test]
    fn zero_gain_facilities_skipped() {
        // Facility 1 duplicates facility 0's coverage entirely.
        let sigma = vec![vec![0, 1], vec![0, 1], vec![]];
        let out = cover(&sigma, 2, 3, &[0, 0, 0]);
        assert_eq!(
            out.selected,
            vec![0],
            "duplicate and empty facilities skipped"
        );
        assert!(out.all_covered);
    }

    #[test]
    fn customer_in_multiple_sigmas_counted_once() {
        let sigma = vec![vec![0, 1, 2], vec![2, 3]];
        let out = cover(&sigma, 4, 2, &[0, 0]);
        assert_eq!(out.selected, vec![0, 1]);
        assert!(out.all_covered);
    }

    #[test]
    fn empty_sigma_covers_nothing() {
        let out = cover(&[vec![], vec![]], 2, 2, &[0, 0]);
        assert!(out.selected.is_empty());
        assert!(!out.all_covered);
        assert_eq!(out.covered, vec![false, false]);
    }

    #[test]
    fn zero_customers_is_trivially_covered() {
        let out = cover(&[vec![]], 0, 1, &[0]);
        assert!(out.all_covered);
    }

    proptest::proptest! {
        /// Greedy-cover invariants on random σ: selected facilities are
        /// distinct, each contributed a fresh customer when selected, and no
        /// skipped facility could still add coverage once |selected| < k.
        #[test]
        fn greedy_cover_invariants(
            sigma in proptest::collection::vec(
                proptest::collection::vec(0u32..12, 0..6), 1..8),
            k in 1usize..6,
        ) {
            let m = 12usize;
            let last = vec![0u64; sigma.len()];
            let out = cover(&sigma, m, k, &last);
            // Distinct selections, at most k.
            let mut uniq = out.selected.clone();
            uniq.sort_unstable();
            uniq.dedup();
            proptest::prop_assert_eq!(uniq.len(), out.selected.len());
            proptest::prop_assert!(out.selected.len() <= k);
            // covered == union of selected sigmas.
            let mut want = vec![false; m];
            for &j in &out.selected {
                for &c in &sigma[j as usize] {
                    want[c as usize] = true;
                }
            }
            proptest::prop_assert_eq!(&out.covered, &want);
            proptest::prop_assert_eq!(out.all_covered, want.iter().all(|&b| b));
            // Maximality: if budget remains, no facility adds new coverage.
            if out.selected.len() < k {
                for (j, s) in sigma.iter().enumerate() {
                    let gain = s.iter().filter(|&&c| !want[c as usize]).count();
                    proptest::prop_assert_eq!(gain, 0, "facility {} still gains", j);
                }
            }
        }
    }

    #[test]
    fn deterministic_given_equal_inputs() {
        let sigma = vec![vec![0, 1], vec![2, 3], vec![1, 2]];
        let a = cover(&sigma, 4, 2, &[0, 0, 0]);
        let b = cover(&sigma, 4, 2, &[0, 0, 0]);
        assert_eq!(a.selected, b.selected);
    }
}
