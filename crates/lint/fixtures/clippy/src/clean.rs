//! The same operations written the way the lints ask for; clippy must
//! report nothing here.

use std::cmp::Ordering;

pub fn typed_error(v: Option<u32>) -> Result<u32, &'static str> {
    v.ok_or("missing value")
}

pub fn near(x: f32) -> bool {
    (x - 0.5).abs() < f32::EPSILON
}

pub fn exact_zero_sentinel(x: f32) -> bool {
    x == 0.0
}

pub fn total_order(a: f32, b: f32) -> Ordering {
    a.total_cmp(&b)
}

pub fn widen(bit: u32) -> f64 {
    f64::from(bit)
}

#[allow(
    clippy::too_many_arguments,
    reason = "demonstrates a reasoned allow; the fn has no arguments"
)]
pub fn reasoned_allow() {}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_unwrap() {
        assert_eq!(super::typed_error(Some(1)).unwrap(), 1);
    }
}
