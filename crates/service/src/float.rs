//! Shortest round-trip `f64` text, byte-identical to `f64: Display`.
//!
//! The digits come from Ryu (Adams, PLDI 2018,
//! <https://doi.org/10.1145/3192366.3192369>): scale the rounding interval
//! of `v` into a decimal power with one 128-bit power of five, then drop
//! decimal digits while the interval's ends still differ. Two departures
//! make it print what std prints: an exact tie (the dropped digits read
//! `50…0`) rounds up, not to even, and the layout is `Display`'s — plain
//! decimal, never an exponent, no `.0` on an integral value, `-0`, `NaN`,
//! `inf`. The tests hold it to `format!("{v}")` byte for byte.

use std::fmt;

/// Bits kept of every table entry.
const POW5_BITS: i32 = 125;

/// Limbs of the table generators' bignum: 960 bits hold `2^959` and
/// `5^341`.
const LIMBS: usize = 30;

/// `POW5[i]` is the top 125 bits of `5^i`:
/// `⌊5^i / 2^(pow5bits(i) − 125)⌋` (shifted left while `5^i` is shorter).
static POW5: [u128; 326] = pow5_table();

/// `POW5_INV[q]` is `⌊2^(pow5bits(q) − 1 + 125) / 5^q⌋ + 1`.
static POW5_INV: [u128; 342] = pow5_inv_table();

/// `"00" "01" … "99"`.
static DIGIT_PAIRS: [u8; 200] = {
    let mut t = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        t[2 * i] = b'0' + (i / 10) as u8;
        t[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    t
};

/// A run of zeros to copy `Display`'s padding from: `f64::MAX` has 292
/// of them, `5e-324` has 323.
const ZEROS: &str = "0000000000000000000000000000000000000000000000000000000000000000";

/// Bit length of `5^e` (`1` for `e = 0`), for `0 ≤ e ≤ 3528`.
const fn pow5bits(e: i32) -> i32 {
    ((e as u32 * 1_217_359) >> 19) as i32 + 1
}

/// `⌊log10(2^e)⌋` for `0 ≤ e ≤ 1650`.
fn log10_pow2(e: i32) -> i32 {
    ((e as u32 * 78_913) >> 18) as i32
}

/// `⌊log10(5^e)⌋` for `0 ≤ e ≤ 2620`.
fn log10_pow5(e: i32) -> i32 {
    ((e as u32 * 732_923) >> 20) as i32
}

/// Bits `[lo, lo + 128)` of the little-endian bignum `n`.
const fn bits_at(n: &[u32; LIMBS], lo: usize) -> u128 {
    let (limb, shift) = (lo / 32, lo % 32);
    let mut acc = n[limb] as u128 >> shift;
    let mut i = 1;
    while i < 5 && limb + i < LIMBS {
        if let Some(part) = (n[limb + i] as u128).checked_shl((32 * i - shift) as u32) {
            acc |= part;
        }
        i += 1;
    }
    acc
}

const fn pow5_table() -> [u128; 326] {
    let mut table = [0u128; 326];
    let mut p = [0u32; LIMBS]; // 5^i
    p[0] = 1;
    let mut i = 0;
    while i < table.len() {
        let len = pow5bits(i as i32);
        table[i] = if len <= POW5_BITS {
            bits_at(&p, 0) << (POW5_BITS - len)
        } else {
            bits_at(&p, (len - POW5_BITS) as usize)
        };
        let (mut carry, mut k) = (0u64, 0);
        while k < LIMBS {
            let x = p[k] as u64 * 5 + carry;
            p[k] = x as u32;
            carry = x >> 32;
            k += 1;
        }
        i += 1;
    }
    table
}

const fn pow5_inv_table() -> [u128; 342] {
    let mut table = [0u128; 342];
    let mut n = [0u32; LIMBS]; // ⌊2^959 / 5^q⌋
    n[LIMBS - 1] = 1 << 31;
    let mut q = 0;
    while q < table.len() {
        let j = pow5bits(q as i32) - 1 + POW5_BITS;
        table[q] = bits_at(&n, (959 - j) as usize) + 1;
        let (mut rem, mut k) = (0u64, LIMBS);
        while k > 0 {
            k -= 1;
            let x = (rem << 32) | n[k] as u64;
            n[k] = (x / 5) as u32;
            rem = x % 5;
        }
        q += 1;
    }
    table
}

/// `⌊x · mul / 2^j⌋` for `64 ≤ j < 192`.
fn mul_shift(x: u64, mul: u128, j: i32) -> u64 {
    let lo = u128::from(x) * (mul as u64 as u128);
    let hi = u128::from(x) * (mul >> 64);
    (((lo >> 64) + hi) >> (j - 64)) as u64
}

/// Whether `5^p` divides `x`.
fn multiple_of_pow5(mut x: u64, p: i32) -> bool {
    let mut factor = 0;
    while x.is_multiple_of(5) && factor < p {
        x /= 5;
        factor += 1;
    }
    factor >= p
}

/// The shortest `(digits, e10)` with `digits · 10^e10` inside the rounding
/// interval of the finite, nonzero `|v|` (given as its bits), nearest `v`
/// among those of that length, an exact tie broken upward.
fn shortest(bits: u64) -> (u64, i32) {
    let mantissa = bits & ((1 << 52) - 1);
    let exponent = ((bits >> 52) & 0x7ff) as i32;
    // Two extra bits so both ends of the interval are integers.
    let (e2, m2) = match exponent {
        0 => (-1076, mantissa),
        _ => (exponent - 1077, mantissa | 1 << 52),
    };
    let accept_bounds = m2 % 2 == 0;
    let mv = 4 * m2;
    // The gap below a power of two is half the gap above it.
    let mm_shift = u64::from(mantissa != 0 || exponent <= 1);
    let scale = |mul: u128, j: i32| {
        let at = |x: u64| mul_shift(x, mul, j);
        (at(mv), at(mv + 2), at(mv - 1 - mm_shift))
    };
    // `vm_exact`: the lower end, scaled, is an integer (its dropped digits
    // are all zero), so it may be the output when the bounds are accepted.
    let (e10, mut vr, mut vp, mut vm, mut vm_exact);
    if e2 >= 0 {
        let q = log10_pow2(e2) - i32::from(e2 > 3);
        e10 = q;
        (vr, vp, vm) = scale(POW5_INV[q as usize], q - e2 + pow5bits(q) - 1 + POW5_BITS);
        vm_exact = false;
        // At most one of the three is a multiple of 5; if `mv` is,
        // neither end is exact.
        if q <= 21 && mv % 5 != 0 {
            if accept_bounds {
                vm_exact = multiple_of_pow5(mv - 1 - mm_shift, q);
            } else {
                vp -= u64::from(multiple_of_pow5(mv + 2, q));
            }
        }
    } else {
        let q = log10_pow5(-e2) - i32::from(e2 < -1);
        let i = -e2 - q;
        e10 = q + e2;
        (vr, vp, vm) = scale(POW5[i as usize], q - pow5bits(i) + POW5_BITS);
        vm_exact = q <= 1 && accept_bounds && mm_shift == 1;
        if q <= 1 && !accept_bounds {
            vp -= 1;
        }
    }
    let (mut removed, mut last) = (0, 0);
    while vp / 10 > vm / 10 {
        vm_exact &= vm % 10 == 0;
        last = vr % 10;
        (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
        removed += 1;
    }
    if vm_exact {
        while vm % 10 == 0 {
            last = vr % 10;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
    }
    // Step off an excluded lower end, and round a dropped half or more up.
    let up = (vr == vm && !(accept_bounds && vm_exact)) || last >= 5;
    (vr + u64::from(up), e10 + removed)
}

/// Writes `v` exactly as `write!(out, "{v}")` would.
pub(crate) fn write_f64<W: fmt::Write>(out: &mut W, v: f64) -> fmt::Result {
    if v.is_nan() {
        return out.write_str("NaN");
    }
    if v.is_sign_negative() {
        out.write_str("-")?;
    }
    if v.is_infinite() {
        return out.write_str("inf");
    }
    if v == 0.0 {
        return out.write_str("0");
    }
    let (mut digits, e10) = shortest(v.to_bits());
    // Digits right-aligned over a background of zeros, two at a time.
    let mut buf = [b'0'; 24];
    let mut start = buf.len();
    while digits >= 10 {
        let pair = (digits % 100) as usize * 2;
        start -= 2;
        buf[start..start + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        digits /= 100;
    }
    if digits > 0 {
        start -= 1;
        buf[start] = b'0' + digits as u8;
    }
    let len = buf.len() - start;
    let frac = e10.unsigned_abs() as usize;
    // Where the text starts in `buf`, and how many zeros follow it.
    let (from, trailing) = if e10 >= 0 {
        (start, frac)
    } else if frac < len {
        // `ddd.ddd`: move the integer digits one left to open the point.
        let int = len - frac;
        buf.copy_within(start..start + int, start - 1);
        buf[start - 1 + int] = b'.';
        (start - 1, 0)
    } else if frac + 2 <= buf.len() {
        // `0.00ddd`: the zeros are already in the buffer.
        let from = buf.len() - frac - 2;
        buf[from + 1] = b'.';
        (from, 0)
    } else {
        out.write_str("0.")?;
        write_zeros(out, frac - len)?;
        (start, 0)
    };
    out.write_str(std::str::from_utf8(&buf[from..]).map_err(|_| fmt::Error)?)?;
    write_zeros(out, trailing)
}

fn write_zeros<W: fmt::Write>(out: &mut W, mut n: usize) -> fmt::Result {
    while n > 0 {
        let run = n.min(ZEROS.len());
        out.write_str(&ZEROS[..run])?;
        n -= run;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::splitmix64;
    use std::cmp::Ordering;
    use std::fmt::Write;

    /// Compares the writer with std's `Display` on `v`; `ours` and `std`
    /// are reused line buffers.
    fn check(v: f64, ours: &mut String, std: &mut String) {
        ours.clear();
        std.clear();
        write_f64(ours, v).unwrap();
        write!(std, "{v}").unwrap();
        assert_eq!(ours, std, "bits {:#018x}", v.to_bits());
    }

    fn text(v: f64) -> String {
        let mut s = String::new();
        write_f64(&mut s, v).unwrap();
        s
    }

    /// `2^e` for every exponent, `1eN` for every decade, each ± 2 ulp and
    /// of both signs; the first and last subnormals; the specials.
    fn boundary_values() -> Vec<f64> {
        let powers_of_two = (-1074..=1023i32).map(|e| match e {
            ..=-1023 => 1u64 << (e + 1074),
            _ => ((e + 1023) as u64) << 52,
        });
        let powers_of_ten = (-330..=308).map(|n| format!("1e{n}").parse::<f64>().unwrap());
        let mut vals: Vec<f64> = powers_of_two
            .chain(powers_of_ten.map(f64::to_bits))
            .flat_map(|bits| (-2..=2).map(move |d| f64::from_bits(bits.wrapping_add_signed(d))))
            .chain((1..10_000).map(f64::from_bits))
            .chain((0..10_000).map(|i| f64::from_bits(0x000F_FFFF_FFFF_FFFF - i)))
            .collect();
        vals.extend(vals.clone().iter().map(|v| -v));
        vals.extend([
            0.0,
            -0.0,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            f64::EPSILON,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ]);
        vals
    }

    #[test]
    fn matches_display_on_the_boundary_families() {
        let (mut ours, mut std) = (String::new(), String::new());
        for v in boundary_values() {
            check(v, &mut ours, &mut std);
        }
        // Exact ties round up, as std does, not to even as Ryu does.
        assert_eq!(text(2f64.powi(-25)), "0.000000029802322387695313");
        assert_eq!(
            text(f64::from_bits(0x4300_0000_0000_0002)),
            "562949953421312.3"
        );
        // Never an exponent, never a trailing `.0`.
        assert_eq!(text(f64::MAX).len(), 309);
        assert_eq!(text(5e-324), format!("0.{}5", "0".repeat(323)));
        assert_eq!(text(1e21), "1000000000000000000000");
        assert_eq!(text(1.0), "1");
        assert_eq!(text(-0.0), "-0");
        assert_eq!(text(f64::NEG_INFINITY), "-inf");
    }

    /// The coordinates every generator emits, then a million seeded bit
    /// patterns of any class.
    #[test]
    fn matches_display_on_the_unit_grid_and_random_bits() {
        let (mut ours, mut std) = (String::new(), String::new());
        let mut state = 0x5EED;
        for _ in 0..100_000 {
            check(
                (splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64,
                &mut ours,
                &mut std,
            );
        }
        for _ in 0..1_000_000 {
            check(f64::from_bits(splitmix64(&mut state)), &mut ours, &mut std);
        }
    }

    /// 10⁸ values, a unit-grid coordinate and a random bit pattern in
    /// turn: `cargo test --release -p tkm_service float -- --include-ignored`.
    #[test]
    #[ignore = "10^8 values, ≈ 30 s in release"]
    fn matches_display_on_a_hundred_million_values() {
        let (mut ours, mut std) = (String::new(), String::new());
        let mut state = 25;
        let mut checked = 0u64;
        while checked < 100_000_000 {
            let x = splitmix64(&mut state);
            check((x >> 11) as f64 / (1u64 << 53) as f64, &mut ours, &mut std);
            check(f64::from_bits(splitmix64(&mut state)), &mut ours, &mut std);
            checked += 2;
        }
        assert_eq!(checked, 100_000_000);
    }

    /// Little-endian `u32` limbs, trimmed.
    type Big = Vec<u32>;

    fn big(x: u128) -> Big {
        let mut b: Big = (0..4).map(|i| (x >> (32 * i)) as u32).collect();
        trim(&mut b);
        b
    }

    fn trim(b: &mut Big) {
        while b.last() == Some(&0) {
            b.pop();
        }
    }

    fn mul(a: &Big, b: &Big) -> Big {
        let mut out = vec![0u32; a.len() + b.len()];
        for (i, &x) in a.iter().enumerate() {
            let mut carry = 0u64;
            for (j, &y) in b.iter().enumerate() {
                let t = u64::from(x) * u64::from(y) + u64::from(out[i + j]) + carry;
                out[i + j] = t as u32;
                carry = t >> 32;
            }
            out[i + b.len()] = carry as u32;
        }
        trim(&mut out);
        out
    }

    fn pow2(n: usize) -> Big {
        let mut b = vec![0u32; n / 32 + 1];
        b[n / 32] = 1 << (n % 32);
        b
    }

    fn cmp(a: &Big, b: &Big) -> Ordering {
        a.len()
            .cmp(&b.len())
            .then_with(|| a.iter().rev().cmp(b.iter().rev()))
    }

    fn bit_len(b: &Big) -> usize {
        b.last()
            .map_or(0, |top| 32 * b.len() - top.leading_zeros() as usize)
    }

    /// Both tables against their definitions, checked by multiplication
    /// only: `POW5[i] · 2^s ≤ 5^i < (POW5[i] + 1) · 2^s` with
    /// `s = pow5bits(i) − 125`, and `(INV[q] − 1) · 5^q ≤ 2^j < INV[q] · 5^q`.
    #[test]
    fn tables_are_the_powers_of_five() {
        let mut p = big(1); // 5^i
        for (i, &inv) in POW5_INV.iter().enumerate() {
            let len = bit_len(&p);
            assert_eq!(len as i32, pow5bits(i as i32), "bit length of 5^{i}");
            if let Some(&entry) = POW5.get(i) {
                if len <= 125 {
                    assert_eq!(big(entry), mul(&p, &pow2(125 - len)), "POW5[{i}]");
                } else {
                    let unit = pow2(len - 125);
                    assert_ne!(cmp(&mul(&big(entry), &unit), &p), Ordering::Greater);
                    assert_eq!(cmp(&p, &mul(&big(entry + 1), &unit)), Ordering::Less);
                }
            }
            let two_j = pow2(len - 1 + 125);
            assert_ne!(
                cmp(&mul(&big(inv - 1), &p), &two_j),
                Ordering::Greater,
                "INV[{i}]"
            );
            assert_eq!(cmp(&two_j, &mul(&big(inv), &p)), Ordering::Less, "INV[{i}]");
            p = mul(&p, &big(5));
        }
    }
}
