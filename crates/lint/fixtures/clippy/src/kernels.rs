// Kernel-scoped module: the same attribute as the workspace's
// IEEE-exact kernel files.
#![cfg_attr(not(test), warn(clippy::as_conversions))]

pub fn widen(bit: u64) -> f32 {
    bit as f32 // fires: clippy::as_conversions
}
