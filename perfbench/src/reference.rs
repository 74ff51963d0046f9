//! The benchmark's own answers, computed from the generated inputs with
//! plain hash maps — never through an engine of the program — so every
//! workload's outputs are checked against code the program does not
//! share.

use std::collections::HashMap;

/// A binary relation as a multiset of edges: `(x, y) → multiplicity`.
pub type Edges = HashMap<(u64, u64), i64>;

/// Fold a list of `(x, y, ±m)` changes into a multiset, dropping zeros.
pub fn edges(changes: impl IntoIterator<Item = (u64, u64, i64)>) -> Edges {
    let mut m = Edges::new();
    for (x, y, d) in changes {
        let e = m.entry((x, y)).or_insert(0);
        *e += d;
        if *e == 0 {
            m.remove(&(x, y));
        }
    }
    m
}

/// `x → [(y, m)]` adjacency of a multiset, by first (`by_first`) or
/// second column.
fn adjacency(e: &Edges, by_first: bool) -> HashMap<u64, Vec<(u64, i64)>> {
    let mut adj: HashMap<u64, Vec<(u64, i64)>> = HashMap::new();
    for (&(x, y), &m) in e {
        let (k, v) = if by_first { (x, y) } else { (y, x) };
        adj.entry(k).or_default().push((v, m));
    }
    adj
}

/// `Σ_{a,b,c} R(a,b)·S(b,c)·T(c,a)`. Each `R` edge intersects the
/// smaller of `S(b,·)` and `T(·,a)` against the other.
pub fn triangle_count(r: &Edges, s: &Edges, t: &Edges) -> i64 {
    let s_out = adjacency(s, true);
    let t_in = adjacency(t, false);
    let mut total = 0i64;
    for (&(a, b), &rm) in r {
        let (Some(sb), Some(ta)) = (s_out.get(&b), t_in.get(&a)) else {
            continue;
        };
        let mut acc = 0i64;
        if sb.len() <= ta.len() {
            for &(c, sm) in sb {
                if let Some(&tm) = t.get(&(c, a)) {
                    acc += sm * tm;
                }
            }
        } else {
            for &(c, tm) in ta {
                if let Some(&sm) = s.get(&(b, c)) {
                    acc += sm * tm;
                }
            }
        }
        total += rm * acc;
    }
    total
}

/// The triangle listing over one edge relation:
/// `(a, b, c) → E(a,b)·E(b,c)·E(c,a)` for every nonzero triple.
pub fn triangle_listing(e: &Edges) -> HashMap<(u64, u64, u64), i64> {
    let out_adj = adjacency(e, true);
    let mut listing = HashMap::new();
    for (&(a, b), &m1) in e {
        let Some(bc) = out_adj.get(&b) else { continue };
        for &(c, m2) in bc {
            if let Some(&m3) = e.get(&(c, a)) {
                listing.insert((a, b, c), m1 * m2 * m3);
            }
        }
    }
    listing
}

/// `Σ_{a,b,c,d} R(a,b)·S(b,c)·T(c,d)·U(d,a)`, through the two 2-paths
/// `a→b→c` and `c→d→a`.
pub fn four_cycle_count(r: &Edges, s: &Edges, t: &Edges, u: &Edges) -> i64 {
    let two_path = |p: &Edges, q: &Edges| {
        let q_out = adjacency(q, true);
        let mut acc: HashMap<(u64, u64), i64> = HashMap::new();
        for (&(x, y), &m1) in p {
            for &(z, m2) in q_out.get(&y).map(Vec::as_slice).unwrap_or(&[]) {
                *acc.entry((x, z)).or_insert(0) += m1 * m2;
            }
        }
        acc
    };
    let ac = two_path(r, s);
    let ca = two_path(t, u);
    ac.iter()
        .map(|(&(a, c), &m)| m * ca.get(&(c, a)).copied().unwrap_or(0))
        .sum()
}

/// The retailer join's output row: `(locn, dateid, ksn, units, rain,
/// zip, population)` in the query's free-variable order.
pub type RetailerRow = [i64; 7];

/// The five retailer relations as multisets of plain rows.
#[derive(Default)]
pub struct RetailerBase {
    /// `Inventory(locn, dateid, ksn)`.
    pub inventory: HashMap<[i64; 3], i64>,
    /// `Sales(locn, dateid, ksn, units)`.
    pub sales: HashMap<[i64; 4], i64>,
    /// `Weather(locn, dateid, rain)`.
    pub weather: HashMap<[i64; 3], i64>,
    /// `Location(locn, zip)`.
    pub location: HashMap<[i64; 2], i64>,
    /// `Census(locn, zip, population)`.
    pub census: HashMap<[i64; 3], i64>,
}

/// The natural join of the five relations, with multiplicities
/// multiplied, by hash lookups from each Inventory row outwards.
pub fn retailer_join(b: &RetailerBase) -> HashMap<RetailerRow, i64> {
    let mut sales_by: HashMap<[i64; 3], Vec<(i64, i64)>> = HashMap::new();
    for (&[l, d, k, u], &m) in &b.sales {
        sales_by.entry([l, d, k]).or_default().push((u, m));
    }
    let mut weather_by: HashMap<[i64; 2], Vec<(i64, i64)>> = HashMap::new();
    for (&[l, d, rain], &m) in &b.weather {
        weather_by.entry([l, d]).or_default().push((rain, m));
    }
    let mut loc_by: HashMap<i64, Vec<(i64, i64)>> = HashMap::new();
    for (&[l, zip], &m) in &b.location {
        loc_by.entry(l).or_default().push((zip, m));
    }
    let mut census_by: HashMap<[i64; 2], Vec<(i64, i64)>> = HashMap::new();
    for (&[l, zip, pop], &m) in &b.census {
        census_by.entry([l, zip]).or_default().push((pop, m));
    }
    let none: &[(i64, i64)] = &[];
    let mut out = HashMap::new();
    for (&[l, d, k], &mi) in &b.inventory {
        for &(u, ms) in sales_by.get(&[l, d, k]).map_or(none, Vec::as_slice) {
            for &(rain, mw) in weather_by.get(&[l, d]).map_or(none, Vec::as_slice) {
                for &(zip, ml) in loc_by.get(&l).map_or(none, Vec::as_slice) {
                    for &(pop, mc) in census_by.get(&[l, zip]).map_or(none, Vec::as_slice) {
                        let m = mi * ms * mw * ml * mc;
                        if m != 0 {
                            *out.entry([l, d, k, u, rain, zip, pop]).or_insert(0) += m;
                        }
                    }
                }
            }
        }
    }
    out.retain(|_, m| *m != 0);
    out
}

/// A linear sketch of a multiset of rows: `Σ m · h(row)` in wrapping
/// arithmetic. Linear in the multiplicities, so the sketch of a view
/// equals the sum of the sketches of the deltas that built it.
pub fn row_hash(row: &[i64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &v in row {
        h ^= v as u64;
        h = h.wrapping_mul(0x0100_0000_01b3).rotate_left(29);
        h = h.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
    h
}

pub fn sketch_add(acc: &mut u64, row: &[i64], m: i64) {
    *acc = acc.wrapping_add(row_hash(row).wrapping_mul(m as u64));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(list: &[(u64, u64)]) -> Edges {
        edges(list.iter().map(|&(x, y)| (x, y, 1)))
    }

    #[test]
    fn triangle_count_by_hand() {
        // One directed triangle 1→2→3→1 across three relations.
        let r = e(&[(1, 2)]);
        let s = e(&[(2, 3)]);
        let t = e(&[(3, 1)]);
        assert_eq!(triangle_count(&r, &s, &t), 1);
        // A second S edge closing nothing changes nothing; doubling the
        // closing T edge doubles the count.
        let s2 = e(&[(2, 3), (2, 4)]);
        let t2 = edges([(3, 1, 2)]);
        assert_eq!(triangle_count(&r, &s2, &t2), 2);
        // Two R edges sharing the closing path: 1→2 and 5→2 only the
        // first closes (T has 3→1, not 3→5).
        let r2 = e(&[(1, 2), (5, 2)]);
        assert_eq!(triangle_count(&r2, &s, &t), 1);
        assert_eq!(triangle_count(&r, &s, &e(&[])), 0);
    }

    #[test]
    fn self_join_triangle_listing_by_hand() {
        // The 3-cycle 1→2→3→1 yields its three rotations; the chord 1→3
        // closes nothing.
        let g = e(&[(1, 2), (2, 3), (3, 1), (1, 3)]);
        let l = triangle_listing(&g);
        let mut keys: Vec<_> = l.keys().copied().collect();
        keys.sort();
        assert_eq!(keys, vec![(1, 2, 3), (2, 3, 1), (3, 1, 2)]);
        assert!(l.values().all(|&m| m == 1));
        assert_eq!(triangle_count(&g, &g, &g), 3);
        // A self-loop is a degenerate triangle (a = b = c).
        let loop_ = e(&[(7, 7)]);
        assert_eq!(triangle_listing(&loop_).get(&(7, 7, 7)), Some(&1));
    }

    #[test]
    fn four_cycle_by_hand() {
        // 1→2→3→4→1 through R, S, T, U.
        let (r, s, t, u) = (e(&[(1, 2)]), e(&[(2, 3)]), e(&[(3, 4)]), e(&[(4, 1)]));
        assert_eq!(four_cycle_count(&r, &s, &t, &u), 1);
        // Two middle paths 2→3→4 and 2→5→4 give two cycles.
        let s2 = e(&[(2, 3), (2, 5)]);
        let t2 = e(&[(3, 4), (5, 4)]);
        assert_eq!(four_cycle_count(&r, &s2, &t2, &u), 2);
        // Breaking the last edge breaks both.
        assert_eq!(four_cycle_count(&r, &s2, &t2, &e(&[(4, 9)])), 0);
    }

    #[test]
    fn multiset_folding_cancels() {
        let m = edges([(1, 2, 1), (1, 2, 1), (3, 4, 1), (3, 4, -1)]);
        assert_eq!(m.get(&(1, 2)), Some(&2));
        assert!(!m.contains_key(&(3, 4)));
    }

    #[test]
    fn retailer_join_by_hand() {
        let mut b = RetailerBase::default();
        b.inventory.insert([1, 10, 100], 1);
        b.inventory.insert([2, 10, 100], 1); // no Sales row: joins nothing
        b.sales.insert([1, 10, 100, 5], 1);
        b.sales.insert([1, 10, 100, 7], 2);
        b.weather.insert([1, 10, 0], 1);
        b.location.insert([1, 50], 1);
        b.census.insert([1, 50, 900], 1);
        b.weather.insert([2, 10, 1], 1);
        b.location.insert([2, 50], 1);
        b.census.insert([2, 50, 800], 1);
        let out = retailer_join(&b);
        assert_eq!(out.len(), 2);
        assert_eq!(out.get(&[1, 10, 100, 5, 0, 50, 900]), Some(&1));
        assert_eq!(out.get(&[1, 10, 100, 7, 0, 50, 900]), Some(&2));
    }

    #[test]
    fn sketch_is_linear() {
        let mut whole = 0u64;
        sketch_add(&mut whole, &[1, 2, 3], 2);
        let mut parts = 0u64;
        sketch_add(&mut parts, &[1, 2, 3], 3);
        sketch_add(&mut parts, &[1, 2, 3], -1);
        sketch_add(&mut parts, &[4, 5, 6], 1);
        sketch_add(&mut parts, &[4, 5, 6], -1);
        assert_eq!(whole, parts);
        assert_ne!(row_hash(&[1, 2, 3]), row_hash(&[3, 2, 1]));
    }
}
