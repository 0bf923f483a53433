//! The row kernel of a reduce nest: each row of the nest's box, cut at the
//! ends of its guards' spans into pieces, runs as pieces over slices.

use std::iter::repeat;

use super::{span, NestBox, ReduceNest, MAX_DEPTH, MAX_LINS};

/// The lowest and highest of the `len` indices `first + t * step`, and
/// `|step|`; every one of them is in bounds.
#[inline(always)]
fn ends(first: usize, len: usize, step: i64) -> (usize, usize, usize) {
    let k = step.unsigned_abs() as usize;
    let span = (len - 1) * k;
    if step < 0 {
        (first - span, first, k)
    } else {
        (first, first + span, k)
    }
}

/// Evaluates `$body` with `$walk` bound to a closure that takes `first`
/// and `len` and returns a factor's values at `len` iterations as `f64`s:
/// `$konst` at each, when it is `Some` (a guarded factor outside its
/// span), or else the elements of `$data` from `first`, `$step` apart. Each
/// is a repeated value, a contiguous slice or a strided run, taken once
/// after the nest's check has proved it in bounds. One arm per kind, so
/// that `$body` is compiled for each and its loops neither branch on the
/// kind nor check an index.
macro_rules! walk {
    ($step:expr, $data:expr, $konst:expr, |$walk:ident| $body:expr) => {{
        let (step, data, konst): (i64, &[f32], Option<f64>) = ($step, $data, $konst);
        match step {
            _ if konst.is_some() || step == 0 => {
                let $walk = |first: usize, _: usize| {
                    repeat(match konst {
                        Some(k) => k,
                        None => data[first] as f64,
                    })
                };
                $body
            }
            1 => {
                let $walk =
                    |first: usize, len: usize| data[first..first + len].iter().map(|&v| v as f64);
                $body
            }
            2.. => {
                let $walk = |first: usize, len: usize| {
                    let (lo, hi, k) = ends(first, len, step);
                    data[lo..=hi].iter().step_by(k).map(|&v| v as f64)
                };
                $body
            }
            _ => {
                let $walk = |first: usize, len: usize| {
                    let (lo, hi, k) = ends(first, len, step);
                    data[lo..=hi].iter().step_by(k).rev().map(|&v| v as f64)
                };
                $body
            }
        }
    }};
}

/// How `S` walks a piece of a row, by its stride: every iteration adds to
/// one element (0), or each stores its own, contiguous (1), strided on
/// (> 1) or strided back (< 0).
const ACC: u8 = 0;
const SLICE: u8 = 1;
const FORWARD: u8 = 2;
const BACK: u8 = 3;

/// The row kernel: `s = (s as f64 + x * y) as f32` at each of the `len`
/// iterations of one piece of a row, in order, with `S` at `first` of
/// `data` and walking it `step` apart, as `WALK` says.
#[inline(always)]
fn mac<const WALK: u8>(
    data: &mut [f32],
    first: usize,
    len: usize,
    step: i64,
    x: impl Iterator<Item = f64>,
    y: impl Iterator<Item = f64>,
) {
    let add = |((o, x), y): ((&mut f32, f64), f64)| *o = (*o as f64 + x * y) as f32;
    let (lo, hi, k) = ends(first, len, step);
    match WALK {
        ACC => {
            let acc = &mut data[first];
            *acc = x
                .zip(y)
                .take(len)
                .fold(*acc, |a, (x, y)| (a as f64 + x * y) as f32)
        }
        SLICE => data[lo..=hi].iter_mut().zip(x).zip(y).for_each(add),
        FORWARD => data[lo..=hi]
            .iter_mut()
            .step_by(k)
            .zip(x)
            .zip(y)
            .for_each(add),
        _ => data[lo..=hi]
            .iter_mut()
            .step_by(k)
            .rev()
            .zip(x)
            .zip(y)
            .for_each(add),
    }
}

/// Evaluates `$body` with `$mac` bound to [`mac`] for `S` walking a piece
/// `$step` apart.
macro_rules! sink {
    ($step:expr, |$mac:ident| $body:expr) => {
        match $step {
            0 => {
                let $mac = mac::<ACC>;
                $body
            }
            1 => {
                let $mac = mac::<SLICE>;
                $body
            }
            2.. => {
                let $mac = mac::<FORWARD>;
                $body
            }
            _ => {
                let $mac = mac::<BACK>;
                $body
            }
        }
    };
}

/// One piece of a row: `len` iterations from `at`, each factor inside its
/// span at all of them or at none.
#[derive(Clone, Copy)]
struct Piece {
    at: usize,
    len: usize,
    inside: [bool; 2],
}

/// A row of `n` cut at the ends of the factors' spans: its pieces, in
/// order, are the first `count` of `pieces`.
#[derive(Clone, Copy)]
struct Cut {
    pieces: [Piece; 5],
    count: usize,
}

impl Cut {
    fn of(spans: [(usize, usize); 2], n: usize) -> Cut {
        let mut ends = [0, n, spans[0].0, spans[0].1, spans[1].0, spans[1].1];
        ends.sort_unstable();
        let empty = Piece {
            at: 0,
            len: 0,
            inside: [false; 2],
        };
        let mut cut = Cut {
            pieces: [empty; 5],
            count: 0,
        };
        for w in ends.windows(2) {
            let (a, b) = (w[0], w[1]);
            if a < b {
                cut.pieces[cut.count] = Piece {
                    at: a,
                    len: b - a,
                    inside: spans.map(|(t0, t1)| t0 <= a && b <= t1),
                };
                cut.count += 1;
            }
        }
        cut
    }

    fn pieces(&self) -> &[Piece] {
        &self.pieces[..self.count]
    }
}

/// Runs every row of reduce nest `r` over box `b`, in row-major order,
/// after the nest's checks: `vals` holds every lin's value at the box's
/// first point, `at` where `S` and each factor are then in their slots'
/// storage, `sv` is `S`'s storage and the last argument the factors'.
pub(super) fn run(
    r: &ReduceNest,
    b: &NestBox,
    vals: &[i64; MAX_LINS],
    at: [i64; 3],
    sv: &mut [f32],
    [xs, ys]: [&[f32]; 2],
) {
    let (d, n) = (b.depth - 1, b.row_len());
    let steps = [0, 1, 2].map(|i| r.lins[i].strides[d]);
    // A factor's span, and so the cut of the row into pieces, changes only
    // at a row that steps a level along which a side of a guard moves, or
    // one inside it. An unguarded row is one piece.
    let moves = r.guards.iter().flatten().fold(0, |m, g| {
        let moved = |i: usize, j: usize| r.lins[i].strides[j] != 0;
        let side = |j: usize| g.cmps.iter().any(|&(a, c, _)| moved(a, j) || moved(c, j));
        m.max((0..d).rev().find(|&j| side(j)).map_or(0, |j| j + 1))
    });
    let konst = r.guards.each_ref().map(|g| g.as_ref().map(|g| g.konst));
    let cut = |k: &[i64; MAX_DEPTH]| {
        let v = b.point(&r.lins, vals, k);
        Cut::of([span(r, 0, &v, n), span(r, 1, &v, n)], n)
    };
    let mut row = cut(&b.lo);
    b.each_row(&r.lins, at, |k, stepped, at| {
        if stepped < moves {
            row = cut(k);
        }
        for p in row.pieces() {
            let first =
                |i: usize| at[i].wrapping_add((p.at as i64).wrapping_mul(steps[i])) as usize;
            let ([s, x, y], len, ss) = ([0, 1, 2].map(first), p.len, steps[0]);
            let outside = |f: usize| konst[f].filter(|_| !p.inside[f]);
            walk!(steps[1], xs, outside(0), |wx| {
                walk!(steps[2], ys, outside(1), |wy| {
                    sink!(ss, |mac| mac(sv, s, len, ss, wx(x, len), wy(y, len)))
                })
            })
        }
        true
    });
}
