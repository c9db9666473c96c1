//! Arbitrary-precision unsigned integers.
//!
//! Configuration numbers are usually small, but route distinguishers,
//! 128-bit serial numbers, and vendor counters can exceed `u64`. The paper
//! stores `[num]` and `[hex]` tokens as `BigInt` (Table 1); this module
//! provides the minimal arbitrary-precision arithmetic the miners need:
//! parsing (decimal and hexadecimal), rendering, ordering, and the
//! difference operation used by sequence contracts.

use std::cmp::Ordering;
use std::fmt;

use concord_json::{Error as JsonError, FromJson, Json, ToJson};

/// An arbitrary-precision unsigned integer.
///
/// Stored as base-1e9 limbs, least significant first, with no trailing zero
/// limbs (zero is the empty limb vector).
///
/// # Examples
///
/// ```
/// use concord_types::BigNum;
///
/// let n: BigNum = "184467440737095516150".parse().unwrap();
/// assert_eq!(n.to_string(), "184467440737095516150");
/// assert!(n > BigNum::from(110u64));
/// assert_eq!(BigNum::from(110u64).to_hex(), "6e");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct BigNum {
    limbs: Vec<u32>,
}

const BASE: u64 = 1_000_000_000;

impl BigNum {
    /// Returns zero.
    pub fn zero() -> Self {
        BigNum { limbs: Vec::new() }
    }

    /// Returns `true` if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Parses a decimal string.
    ///
    /// Returns `None` when the string is empty or contains a non-digit.
    pub fn from_decimal(s: &str) -> Option<Self> {
        if s.is_empty() || !s.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        let mut n = BigNum::zero();
        for b in s.bytes() {
            n.mul_small(10);
            n.add_small(u64::from(b - b'0'));
        }
        Some(n)
    }

    /// Parses a hexadecimal string (without a `0x` prefix).
    ///
    /// Returns `None` when the string is empty or contains a non-hex digit.
    pub fn from_hex(s: &str) -> Option<Self> {
        if s.is_empty() || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        let mut n = BigNum::zero();
        for b in s.bytes() {
            let digit = (b as char).to_digit(16).expect("hex digit");
            n.mul_small(16);
            n.add_small(u64::from(digit));
        }
        Some(n)
    }

    /// Renders the value as lowercase hexadecimal (no prefix).
    ///
    /// Zero renders as `"0"`.
    pub fn to_hex(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        // Repeated division by 16; numbers are small in practice so the
        // quadratic cost is irrelevant.
        let mut digits = Vec::new();
        let mut n = self.clone();
        while !n.is_zero() {
            let rem = n.div_small(16);
            digits.push(char::from_digit(rem as u32, 16).expect("base-16 digit"));
        }
        digits.iter().rev().collect()
    }

    /// Returns the value as `u64` if it fits.
    pub fn to_u64(&self) -> Option<u64> {
        let mut acc: u64 = 0;
        for &limb in self.limbs.iter().rev() {
            acc = acc.checked_mul(BASE)?.checked_add(u64::from(limb))?;
        }
        Some(acc)
    }

    /// Heap bytes held by the limb buffer.
    pub fn heap_bytes(&self) -> usize {
        self.limbs.capacity() * std::mem::size_of::<u32>()
    }

    /// Returns the absolute difference `|self - other|`.
    pub fn abs_diff(&self, other: &BigNum) -> BigNum {
        match self.cmp(other) {
            Ordering::Less => other.sub(self),
            Ordering::Equal => BigNum::zero(),
            Ordering::Greater => self.sub(other),
        }
    }

    /// Returns `self + other`.
    pub fn add(&self, other: &BigNum) -> BigNum {
        let mut limbs = Vec::with_capacity(self.limbs.len().max(other.limbs.len()) + 1);
        let mut carry: u64 = 0;
        for i in 0..self.limbs.len().max(other.limbs.len()) {
            let a = u64::from(self.limbs.get(i).copied().unwrap_or(0));
            let b = u64::from(other.limbs.get(i).copied().unwrap_or(0));
            let sum = a + b + carry;
            limbs.push((sum % BASE) as u32);
            carry = sum / BASE;
        }
        if carry > 0 {
            limbs.push(carry as u32);
        }
        BigNum { limbs }.normalized()
    }

    /// Returns `self - other`.
    ///
    /// # Panics
    ///
    /// Panics if `other > self`; use [`BigNum::abs_diff`] for a total
    /// operation.
    pub fn sub(&self, other: &BigNum) -> BigNum {
        assert!(other <= self, "BigNum::sub underflow");
        let mut limbs = Vec::with_capacity(self.limbs.len());
        let mut borrow: i64 = 0;
        for i in 0..self.limbs.len() {
            let a = i64::from(self.limbs[i]);
            let b = i64::from(other.limbs.get(i).copied().unwrap_or(0));
            let mut diff = a - b - borrow;
            if diff < 0 {
                diff += BASE as i64;
                borrow = 1;
            } else {
                borrow = 0;
            }
            limbs.push(diff as u32);
        }
        BigNum { limbs }.normalized()
    }

    /// Returns the number of decimal digits in the value (1 for zero).
    pub fn decimal_digits(&self) -> usize {
        self.to_string().len()
    }

    fn normalized(mut self) -> Self {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
        self
    }

    fn mul_small(&mut self, factor: u64) {
        let mut carry: u64 = 0;
        for limb in &mut self.limbs {
            let prod = u64::from(*limb) * factor + carry;
            *limb = (prod % BASE) as u32;
            carry = prod / BASE;
        }
        while carry > 0 {
            self.limbs.push((carry % BASE) as u32);
            carry /= BASE;
        }
    }

    fn add_small(&mut self, addend: u64) {
        let mut carry = addend;
        let mut i = 0;
        while carry > 0 {
            if i == self.limbs.len() {
                self.limbs.push(0);
            }
            let sum = u64::from(self.limbs[i]) + carry;
            self.limbs[i] = (sum % BASE) as u32;
            carry = sum / BASE;
            i += 1;
        }
    }

    /// Divides in place by a small divisor and returns the remainder.
    fn div_small(&mut self, divisor: u64) -> u64 {
        let mut rem: u64 = 0;
        for limb in self.limbs.iter_mut().rev() {
            let cur = rem * BASE + u64::from(*limb);
            *limb = (cur / divisor) as u32;
            rem = cur % divisor;
        }
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
        rem
    }
}

impl From<u64> for BigNum {
    fn from(v: u64) -> Self {
        let mut n = BigNum::zero();
        n.add_small(v);
        n
    }
}

impl From<u32> for BigNum {
    fn from(v: u32) -> Self {
        BigNum::from(u64::from(v))
    }
}

impl std::str::FromStr for BigNum {
    type Err = BigNumParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        BigNum::from_decimal(s).ok_or_else(|| BigNumParseError {
            input: s.to_string(),
        })
    }
}

/// Error parsing a [`BigNum`] from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BigNumParseError {
    /// The rejected input.
    pub input: String,
}

impl fmt::Display for BigNumParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid number {:?}", self.input)
    }
}

impl std::error::Error for BigNumParseError {}

impl Ord for BigNum {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {
                for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
                    match a.cmp(b) {
                        Ordering::Equal => continue,
                        other => return other,
                    }
                }
                Ordering::Equal
            }
            other => other,
        }
    }
}

impl PartialOrd for BigNum {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for BigNum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.limbs.is_empty() {
            return f.write_str("0");
        }
        let mut iter = self.limbs.iter().rev();
        write!(f, "{}", iter.next().expect("non-empty"))?;
        for limb in iter {
            write!(f, "{limb:09}")?;
        }
        Ok(())
    }
}

impl ToJson for BigNum {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl FromJson for BigNum {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let s = String::from_json(value)?;
        BigNum::from_decimal(&s).ok_or_else(|| JsonError::custom(format!("invalid BigNum {s:?}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_roundtrip() {
        for s in [
            "0",
            "1",
            "42",
            "999999999",
            "1000000000",
            "123456789012345678901234567890",
        ] {
            let n = BigNum::from_decimal(s).unwrap();
            assert_eq!(n.to_string(), s);
        }
    }

    #[test]
    fn rejects_bad_decimal() {
        assert!(BigNum::from_decimal("").is_none());
        assert!(BigNum::from_decimal("12a").is_none());
        assert!(BigNum::from_decimal("-5").is_none());
    }

    #[test]
    fn leading_zeros_normalize() {
        assert_eq!(BigNum::from_decimal("007").unwrap(), BigNum::from(7u64));
    }

    #[test]
    fn hex_roundtrip() {
        assert_eq!(BigNum::from(110u64).to_hex(), "6e");
        assert_eq!(BigNum::from_hex("6e").unwrap(), BigNum::from(110u64));
        assert_eq!(BigNum::from_hex("FF").unwrap(), BigNum::from(255u64));
        assert_eq!(BigNum::zero().to_hex(), "0");
        assert!(BigNum::from_hex("xyz").is_none());
    }

    #[test]
    fn ordering() {
        let small = BigNum::from(5u64);
        let large = BigNum::from_decimal("10000000000000000000000").unwrap();
        assert!(small < large);
        assert!(large > small);
        assert_eq!(small.cmp(&BigNum::from(5u64)), Ordering::Equal);
        assert!(BigNum::from(123u64) < BigNum::from(124u64));
    }

    #[test]
    fn add_sub() {
        let a = BigNum::from_decimal("999999999999999999").unwrap();
        let b = BigNum::from(1u64);
        assert_eq!(a.add(&b).to_string(), "1000000000000000000");
        assert_eq!(a.add(&b).sub(&b), a);
        assert_eq!(a.sub(&a), BigNum::zero());
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = BigNum::from(1u64).sub(&BigNum::from(2u64));
    }

    #[test]
    fn abs_diff() {
        let a = BigNum::from(10u64);
        let b = BigNum::from(30u64);
        assert_eq!(a.abs_diff(&b), BigNum::from(20u64));
        assert_eq!(b.abs_diff(&a), BigNum::from(20u64));
        assert_eq!(a.abs_diff(&a), BigNum::zero());
    }

    #[test]
    fn to_u64_bounds() {
        assert_eq!(BigNum::from(u64::MAX).to_u64(), Some(u64::MAX));
        let big = BigNum::from(u64::MAX).add(&BigNum::from(1u64));
        assert_eq!(big.to_u64(), None);
    }

    #[test]
    fn u64_roundtrip() {
        for v in [0u64, 1, 9, 10, 999_999_999, 1_000_000_000, u64::MAX] {
            assert_eq!(BigNum::from(v).to_u64(), Some(v));
            assert_eq!(BigNum::from(v).to_string(), v.to_string());
        }
    }

    #[test]
    fn decimal_digits() {
        assert_eq!(BigNum::zero().decimal_digits(), 1);
        assert_eq!(BigNum::from(9u64).decimal_digits(), 1);
        assert_eq!(BigNum::from(10251u64).decimal_digits(), 5);
    }

    #[test]
    fn serde_roundtrip() {
        let n = BigNum::from_decimal("123456789012345678901234567890").unwrap();
        let json = concord_json::to_string(&n).unwrap();
        assert_eq!(json, "\"123456789012345678901234567890\"");
        let back: BigNum = concord_json::from_str(&json).unwrap();
        assert_eq!(back, n);
    }

    #[test]
    fn from_str_trait() {
        let n: BigNum = "42".parse().unwrap();
        assert_eq!(n, BigNum::from(42u64));
        assert!("4x".parse::<BigNum>().is_err());
    }
}
