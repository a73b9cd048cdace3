//! One must-fire item per invariant handed from cardest-lint to clippy.

use std::cmp::Ordering;

pub fn unwrap_in_library_code(v: Option<u32>) -> u32 {
    v.unwrap() // fires: clippy::unwrap_used
}

pub fn panic_in_library_code(n: u32) -> u32 {
    if n == 0 {
        panic!("zero"); // fires: clippy::panic
    }
    n
}

pub fn float_equality(x: f32) -> bool {
    x == 0.5 // fires: clippy::float_cmp
}

pub fn nan_unsafe_order(a: f32, b: f32) -> Ordering {
    a.partial_cmp(&b).unwrap() // fires: clippy::disallowed_methods clippy::unwrap_used
}

#[allow(clippy::too_many_arguments)] // fires: clippy::allow_attributes_without_reason
pub fn reasonless_allow() {}
