//! Values stored in base objects and exchanged with processes.
//!
//! The paper's model is untyped: registers and snapshot components hold
//! "values". We model this with a small dynamic [`Value`] enum that is
//! totally ordered (several protocols break ties by value order) and
//! hashable (the exhaustive explorer fingerprints configurations).
//!
//! Approximate agreement needs exact real arithmetic on midpoints, so
//! [`Value::Dyadic`] stores dyadic rationals `num / 2^exp` exactly.

use std::fmt;

/// A dyadic rational `num / 2^exp`, the value domain of the approximate
/// agreement protocols (midpoint computations stay exact).
///
/// The representation is kept normalized: `exp == 0` or `num` is odd.
///
/// # Examples
///
/// ```
/// use rsim_smr::value::Dyadic;
///
/// let half = Dyadic::new(1, 1);
/// let quarter = Dyadic::new(1, 2);
/// assert_eq!(half.midpoint(quarter), Dyadic::new(3, 3));
/// assert!(quarter < half);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Dyadic {
    num: i64,
    exp: u32,
}

impl Dyadic {
    /// Creates `num / 2^exp`, normalizing the representation.
    ///
    /// # Panics
    ///
    /// Panics if `exp > 62` after normalization (values this fine are
    /// far below any ε used in the experiments).
    pub fn new(num: i64, exp: u32) -> Self {
        let mut d = Dyadic { num, exp };
        d.normalize();
        assert!(d.exp <= 62, "dyadic denominator overflow: 2^{}", d.exp);
        d
    }

    /// The integer `n` as a dyadic rational.
    pub fn integer(n: i64) -> Self {
        Dyadic { num: n, exp: 0 }
    }

    /// Zero.
    pub fn zero() -> Self {
        Dyadic::integer(0)
    }

    /// One.
    pub fn one() -> Self {
        Dyadic::integer(1)
    }

    /// `1 / 2^exp`, the canonical ε for approximate agreement sweeps.
    pub fn two_to_minus(exp: u32) -> Self {
        Dyadic::new(1, exp)
    }

    /// Numerator of the normalized representation.
    pub fn num(&self) -> i64 {
        self.num
    }

    /// Exponent of the normalized representation (denominator is `2^exp`).
    pub fn exp(&self) -> u32 {
        self.exp
    }

    fn normalize(&mut self) {
        while self.exp > 0 && self.num % 2 == 0 {
            self.num /= 2;
            self.exp -= 1;
        }
    }

    /// Exact midpoint `(self + other) / 2`.
    pub fn midpoint(self, other: Dyadic) -> Dyadic {
        let e = self.exp.max(other.exp);
        let a = self.num << (e - self.exp);
        let b = other.num << (e - other.exp);
        Dyadic::new(a + b, e + 1)
    }

    /// Absolute value.
    pub fn abs(self) -> Dyadic {
        Dyadic { num: self.num.abs(), exp: self.exp }
    }

    /// Approximate `f64` rendering (for reporting only).
    pub fn to_f64(self) -> f64 {
        self.num as f64 / (1u64 << self.exp) as f64
    }

    /// Compares two dyadics exactly.
    fn cmp_exact(&self, other: &Dyadic) -> std::cmp::Ordering {
        let e = self.exp.max(other.exp);
        let a = (self.num as i128) << (e - self.exp);
        let b = (other.num as i128) << (e - other.exp);
        a.cmp(&b)
    }
}

impl std::ops::Add for Dyadic {
    type Output = Dyadic;

    /// Exact sum.
    fn add(self, other: Dyadic) -> Dyadic {
        let e = self.exp.max(other.exp);
        let a = self.num << (e - self.exp);
        let b = other.num << (e - other.exp);
        Dyadic::new(a + b, e)
    }
}

impl std::ops::Sub for Dyadic {
    type Output = Dyadic;

    /// Exact difference.
    fn sub(self, other: Dyadic) -> Dyadic {
        let e = self.exp.max(other.exp);
        let a = self.num << (e - self.exp);
        let b = other.num << (e - other.exp);
        Dyadic::new(a - b, e)
    }
}

impl PartialOrd for Dyadic {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Dyadic {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.cmp_exact(other)
    }
}

impl fmt::Debug for Dyadic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/2^{}", self.num, self.exp)
    }
}

impl fmt::Display for Dyadic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f64())
    }
}

/// A dynamically typed value, the common currency of all base objects.
///
/// `Value::Nil` plays the role of the paper's ⊥ (the initial register
/// value). The ordering is total: `Nil < Bool < Int < Dyadic < Pair <
/// Tuple`, with lexicographic ordering within each variant, so protocols
/// may break ties deterministically by comparing values.
///
/// # Examples
///
/// ```
/// use rsim_smr::value::Value;
///
/// let v = Value::pair(Value::Int(3), Value::Int(7));
/// assert!(Value::Nil < v);
/// assert_eq!(v.as_pair().unwrap().0, &Value::Int(3));
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Value {
    /// The undefined value ⊥; every register starts as `Nil`.
    #[default]
    Nil,
    /// A boolean flag.
    Bool(bool),
    /// A machine integer (inputs, rounds, timestamps).
    Int(i64),
    /// An exact dyadic rational (approximate agreement).
    Dyadic(Dyadic),
    /// An ordered pair, e.g. `(value, timestamp)`.
    Pair(Box<Value>, Box<Value>),
    /// An arbitrary-width tuple.
    Tuple(Vec<Value>),
}

impl Value {
    /// Convenience constructor for a pair.
    pub fn pair(a: Value, b: Value) -> Value {
        Value::Pair(Box::new(a), Box::new(b))
    }

    /// Convenience constructor for a triple.
    pub fn triple(a: Value, b: Value, c: Value) -> Value {
        Value::Tuple(vec![a, b, c])
    }

    /// Is this the undefined value ⊥?
    pub fn is_nil(&self) -> bool {
        matches!(self, Value::Nil)
    }

    /// Views the value as an integer, if it is one.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// Views the value as a boolean, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Views the value as a dyadic rational, if it is one.
    pub fn as_dyadic(&self) -> Option<Dyadic> {
        match self {
            Value::Dyadic(d) => Some(*d),
            _ => None,
        }
    }

    /// Views the value as a pair, if it is one.
    pub fn as_pair(&self) -> Option<(&Value, &Value)> {
        match self {
            Value::Pair(a, b) => Some((a, b)),
            _ => None,
        }
    }

    /// Views the value as a tuple slice, if it is one.
    pub fn as_tuple(&self) -> Option<&[Value]> {
        match self {
            Value::Tuple(t) => Some(t),
            _ => None,
        }
    }

    /// Writes exactly the bytes of `format!("{self:?}")` into `out`,
    /// without going through `core::fmt`. Configuration fingerprints
    /// hash this on every step; the `Debug` impl stays the reference
    /// encoding it is tested against.
    pub fn write_key<W: fmt::Write + ?Sized>(&self, out: &mut W) -> fmt::Result {
        use crate::fingerprint::{write_i64, write_u64};
        match self {
            Value::Nil => out.write_str("⊥"),
            Value::Bool(b) => out.write_str(if *b { "true" } else { "false" }),
            Value::Int(n) => write_i64(out, *n),
            Value::Dyadic(d) => {
                write_i64(out, d.num)?;
                out.write_str("/2^")?;
                write_u64(out, u64::from(d.exp))
            }
            Value::Pair(a, b) => {
                out.write_str("(")?;
                a.write_key(out)?;
                out.write_str(",")?;
                b.write_key(out)?;
                out.write_str(")")
            }
            Value::Tuple(t) => {
                out.write_str("(")?;
                for (i, v) in t.iter().enumerate() {
                    if i > 0 {
                        out.write_str(",")?;
                    }
                    v.write_key(out)?;
                }
                out.write_str(")")
            }
        }
    }
}

impl From<i64> for Value {
    fn from(n: i64) -> Value {
        Value::Int(n)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<Dyadic> for Value {
    fn from(d: Dyadic) -> Value {
        Value::Dyadic(d)
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Nil => write!(f, "⊥"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(n) => write!(f, "{n}"),
            Value::Dyadic(d) => write!(f, "{d:?}"),
            Value::Pair(a, b) => write!(f, "({a:?},{b:?})"),
            Value::Tuple(t) => {
                write!(f, "(")?;
                for (i, v) in t.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{v:?}")?;
                }
                write!(f, ")")
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

impl crate::fingerprint::ConfigHash for Value {
    fn hash_config(&self, h: &mut crate::fingerprint::FnvStream) {
        let _ = self.write_key(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dyadic_normalizes() {
        assert_eq!(Dyadic::new(4, 2), Dyadic::integer(1));
        assert_eq!(Dyadic::new(6, 1), Dyadic::integer(3));
        assert_eq!(Dyadic::new(3, 2).num(), 3);
        assert_eq!(Dyadic::new(3, 2).exp(), 2);
    }

    #[test]
    fn dyadic_midpoint_exact() {
        let a = Dyadic::zero();
        let b = Dyadic::one();
        let m = a.midpoint(b);
        assert_eq!(m, Dyadic::new(1, 1));
        let m2 = m.midpoint(b);
        assert_eq!(m2, Dyadic::new(3, 2));
    }

    #[test]
    fn dyadic_arithmetic() {
        let a = Dyadic::new(3, 2); // 3/4
        let b = Dyadic::new(1, 1); // 1/2
        assert_eq!(a + b, Dyadic::new(5, 2));
        assert_eq!(a - b, Dyadic::new(1, 2));
        assert_eq!(b - a, Dyadic::new(-1, 2));
        assert_eq!((b - a).abs(), Dyadic::new(1, 2));
    }

    #[test]
    fn dyadic_ordering() {
        assert!(Dyadic::new(1, 2) < Dyadic::new(1, 1));
        assert!(Dyadic::zero() < Dyadic::two_to_minus(20));
        assert!(Dyadic::integer(-1) < Dyadic::zero());
    }

    #[test]
    fn value_ordering_is_total_across_variants() {
        let vals = [Value::Nil,
            Value::Bool(false),
            Value::Int(0),
            Value::Dyadic(Dyadic::zero()),
            Value::pair(Value::Nil, Value::Nil),
            Value::Tuple(vec![])];
        for w in vals.windows(2) {
            assert!(w[0] < w[1], "{:?} !< {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn value_accessors() {
        assert_eq!(Value::Int(5).as_int(), Some(5));
        assert_eq!(Value::Nil.as_int(), None);
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        let p = Value::pair(Value::Int(1), Value::Int(2));
        let (a, b) = p.as_pair().unwrap();
        assert_eq!((a.as_int(), b.as_int()), (Some(1), Some(2)));
        assert!(Value::triple(Value::Nil, Value::Nil, Value::Nil)
            .as_tuple()
            .is_some());
    }

    #[test]
    fn nil_is_default() {
        assert_eq!(Value::default(), Value::Nil);
        assert!(Value::Nil.is_nil());
    }
}
