//! Hilbert space-filling curve.
//!
//! The paper's strongest scalable baseline orders customers "using the
//! spatial order defined by a Hilbert space-filling curve" (Section VII-A,
//! citing Kamel & Faloutsos's Hilbert R-tree). We implement the standard
//! index/point conversions on a `2^order × 2^order` grid plus a helper
//! that maps arbitrary planar points into curve indices. Point → index
//! reads four levels per step from a `const` table (see [`hilbert_xy2d`]);
//! index → point is the plain iterative loop.

use crate::geometry::Point;

/// Convert a Hilbert curve index `d` to grid coordinates on a
/// `2^order × 2^order` grid. Inverse of [`hilbert_xy2d`].
pub fn hilbert_d2xy(order: u32, d: u64) -> (u32, u32) {
    assert!((1..=31).contains(&order), "order must be in 1..=31");
    let (mut x, mut y) = (0u64, 0u64);
    let mut t = d;
    let mut s = 1u64;
    while s < (1u64 << order) {
        let rx = 1 & (t / 2);
        let ry = 1 & (t ^ rx);
        rot(s, &mut x, &mut y, rx, ry);
        x += s * rx;
        y += s * ry;
        t /= 4;
        s *= 2;
    }
    (x as u32, y as u32)
}

/// Convert grid coordinates to the Hilbert curve index on a
/// `2^order × 2^order` grid. Inverse of [`hilbert_d2xy`].
///
/// Equal to the textbook loop that reads one bit of `x` and `y` per level,
/// emits a 2-bit digit and rotates the lower bits. The rotations applied
/// so far amount to a swap flag and a complement flag (complementing both
/// coordinates commutes with swapping them), so the loop's whole state is
/// 2 bits. A 1,024-entry `const` table steps four levels at once from
/// that state and 4 bits of each coordinate; the leading `order % 4`
/// levels go one at a time.
pub fn hilbert_xy2d(order: u32, x: u32, y: u32) -> u64 {
    assert!((1..=31).contains(&order), "order must be in 1..=31");
    let side = 1u64 << order;
    assert!(
        (x as u64) < side && (y as u64) < side,
        "coordinates outside grid"
    );
    let mut d = 0u64;
    let mut state = 0u32;
    let mut level = order;
    while !level.is_multiple_of(4) {
        level -= 1;
        let (digit, next) = level_step(state, (x >> level) & 1, (y >> level) & 1);
        d = d << 2 | u64::from(digit);
        state = next;
    }
    while level > 0 {
        level -= 4;
        let entry = LEVELS4[(state << 8 | ((x >> level) & 15) << 4 | ((y >> level) & 15)) as usize];
        d = d << 8 | u64::from(entry >> 2);
        state = u32::from(entry & 3);
    }
    d
}

/// One level of the curve. `state` holds the swap flag (bit 0) and the
/// complement flag (bit 1) of the rotations applied above this level;
/// `bx`, `by` are this level's bits of the raw coordinates. Returns the
/// level's digit and the state below it.
const fn level_step(state: u32, bx: u32, by: u32) -> (u32, u32) {
    let flip = state >> 1;
    let (mut rx, mut ry) = (bx ^ flip, by ^ flip);
    if state & 1 == 1 {
        (rx, ry) = (ry, rx);
    }
    let mut next = state;
    if ry == 0 {
        next ^= 1 | rx << 1;
    }
    ((3 * rx) ^ ry, next)
}

/// Four levels at once: entry `state << 8 | x4 << 4 | y4` holds the 8
/// index bits of those levels above the state below them
/// (`digits << 2 | state`).
const LEVELS4: [u16; 1024] = {
    let mut table = [0u16; 1024];
    let mut i = 0;
    while i < 1024 {
        let (mut state, x4, y4) = ((i >> 8) as u32, (i >> 4 & 15) as u32, (i & 15) as u32);
        let mut digits = 0u32;
        let mut bit = 4;
        while bit > 0 {
            bit -= 1;
            let (digit, next) = level_step(state, x4 >> bit & 1, y4 >> bit & 1);
            digits = digits << 2 | digit;
            state = next;
        }
        table[i] = (digits << 2 | state) as u16;
        i += 1;
    }
    table
};

/// Quadrant rotation of [`hilbert_d2xy`].
#[inline]
fn rot(s: u64, x: &mut u64, y: &mut u64, rx: u64, ry: u64) {
    if ry == 0 {
        if rx == 1 {
            *x = s.wrapping_sub(1).wrapping_sub(*x);
            *y = s.wrapping_sub(1).wrapping_sub(*y);
        }
        std::mem::swap(x, y);
    }
}

/// Map arbitrary planar points onto Hilbert indices of a `2^order` grid
/// spanning their bounding box. Points then sorted by the returned key are in
/// Hilbert order — the customer ordering the Hilbert baseline needs.
///
/// Degenerate boxes (all points equal, or a vertical/horizontal line) are
/// handled by collapsing the degenerate axis to cell 0.
pub fn hilbert_keys(points: &[Point], order: u32) -> Vec<u64> {
    if points.is_empty() {
        return Vec::new();
    }
    let (mut min_x, mut min_y) = (f64::INFINITY, f64::INFINITY);
    let (mut max_x, mut max_y) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
    for p in points {
        min_x = min_x.min(p.x);
        min_y = min_y.min(p.y);
        max_x = max_x.max(p.x);
        max_y = max_y.max(p.y);
    }
    let side = (1u64 << order) as f64;
    let span_x = (max_x - min_x).max(f64::MIN_POSITIVE);
    let span_y = (max_y - min_y).max(f64::MIN_POSITIVE);
    points
        .iter()
        .map(|p| {
            let gx = (((p.x - min_x) / span_x) * (side - 1.0)).round() as u32;
            let gy = (((p.y - min_y) / span_y) * (side - 1.0)).round() as u32;
            hilbert_xy2d(order, gx, gy)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    proptest::proptest! {
        /// d2xy/xy2d are inverse for random indices at random orders.
        #[test]
        fn random_round_trips(order in 1u32..16, d in 0u64..u32::MAX as u64) {
            let d = d % (1u64 << (2 * order));
            let (x, y) = hilbert_d2xy(order, d);
            proptest::prop_assert_eq!(hilbert_xy2d(order, x, y), d);
        }
    }

    #[test]
    fn order_one_curve() {
        // The 2x2 Hilbert curve visits (0,0),(0,1),(1,1),(1,0).
        let pts: Vec<_> = (0..4).map(|d| hilbert_d2xy(1, d)).collect();
        assert_eq!(pts, vec![(0, 0), (0, 1), (1, 1), (1, 0)]);
    }

    #[test]
    fn bijection_small_orders() {
        for order in 1..=5u32 {
            let n = 1u64 << (2 * order);
            let mut seen = vec![false; n as usize];
            for d in 0..n {
                let (x, y) = hilbert_d2xy(order, d);
                assert_eq!(hilbert_xy2d(order, x, y), d, "round trip at order {order}");
                let idx = (x as u64 * (1 << order) + y as u64) as usize;
                assert!(!seen[idx], "cell visited twice");
                seen[idx] = true;
            }
            assert!(seen.iter().all(|&b| b), "curve covers the grid");
        }
    }

    #[test]
    fn adjacency_property() {
        // Consecutive curve positions are grid neighbors (locality).
        let order = 6;
        let n = 1u64 << (2 * order);
        let mut prev = hilbert_d2xy(order, 0);
        for d in 1..n {
            let cur = hilbert_d2xy(order, d);
            let dx = (cur.0 as i64 - prev.0 as i64).abs();
            let dy = (cur.1 as i64 - prev.1 as i64).abs();
            assert_eq!(dx + dy, 1, "steps move one cell at d={d}");
            prev = cur;
        }
    }

    #[test]
    fn keys_sort_spatially() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(0.1, 0.05),
            Point::new(10.0, 10.0),
            Point::new(9.9, 10.1),
        ];
        let keys = hilbert_keys(&pts, 16);
        // The two near-origin points are adjacent in curve order, as are the
        // two far points.
        let mut idx: Vec<usize> = (0..4).collect();
        idx.sort_by_key(|&i| keys[i]);
        let pos = |i: usize| idx.iter().position(|&j| j == i).unwrap();
        assert_eq!((pos(0) as i64 - pos(1) as i64).abs(), 1);
        assert_eq!((pos(2) as i64 - pos(3) as i64).abs(), 1);
    }

    #[test]
    fn degenerate_inputs() {
        assert!(hilbert_keys(&[], 8).is_empty());
        // All-equal points collapse to one key without NaN/panic.
        let keys = hilbert_keys(&[Point::new(1.0, 1.0); 3], 8);
        assert!(keys.iter().all(|&k| k == keys[0]));
        // Collinear (vertical) points produce monotone keys along the line.
        let pts: Vec<_> = (0..8).map(|i| Point::new(0.0, i as f64)).collect();
        let keys = hilbert_keys(&pts, 4);
        assert_eq!(keys.len(), 8);
    }

    #[test]
    #[should_panic(expected = "outside grid")]
    fn xy2d_bounds_checked() {
        hilbert_xy2d(2, 4, 0);
    }
}
