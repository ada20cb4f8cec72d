//! The value contract behind [`Protocol::Olc`](crate::Protocol::Olc)'s
//! latch-free reads: which value types may be cloned inside an
//! unvalidated read window.

/// Whether OLC's latch-free read path may materialize a value of this
/// type *inside* an unvalidated read window.
///
/// `get`/`range` on an OLC tree clone the value out of the leaf while
/// no latch is held; a concurrent writer can expose the slot
/// mid-`memmove` (a byte-blend of two valid values) or behind a torn
/// length (bytes never initialized). `IN_WINDOW = true` commits the
/// type to surviving that: the failed validation that follows discards
/// the value, but the clone itself has already run on the torn bytes,
/// so it must have been harmless.
///
/// # Safety
///
/// An impl may set [`IN_WINDOW`](Self::IN_WINDOW) to `true` only for
/// plain old data: every byte pattern is a valid `Self` (no references,
/// no niches, no invalid discriminants — which rules out `bool` and
/// `char`), `Self` owns no heap (its `Clone` never dereferences a
/// stored pointer), and `Clone` is a side-effect-free bitwise copy. A
/// torn clone of such a type yields at worst a *wrong value*, which the
/// version re-check discards — never undefined behavior.
///
/// `IN_WINDOW = false` is always sound to declare: the engine
/// materializes such values under one brief shared leaf latch instead,
/// keeping the inner levels of the descent latch-free (see
/// `ConcurrentBTree::get`).
#[allow(unsafe_code)] // the trait's contract is exactly what makes the windows sound
pub unsafe trait OlcValue: Clone {
    /// Whether `clone` may run inside an unvalidated read window.
    const IN_WINDOW: bool;
}

macro_rules! olc_pod {
    ($($t:ty),* $(,)?) => {$(
        // SAFETY: plain old data — every bit pattern is a valid value,
        // no heap ownership, bitwise side-effect-free `Clone`.
        #[allow(unsafe_code)]
        unsafe impl OlcValue for $t {
            const IN_WINDOW: bool = true;
        }
    )*};
}
olc_pod!(
    (),
    u8,
    u16,
    u32,
    u64,
    u128,
    usize,
    i8,
    i16,
    i32,
    i64,
    i128,
    isize,
    f32,
    f64
);

macro_rules! olc_latched {
    ($($(#[$doc:meta])* $t:ty),* $(,)?) => {$(
        // SAFETY: `IN_WINDOW = false` is unconditionally sound — these
        // values are only ever cloned under a shared leaf latch.
        $(#[$doc])*
        #[allow(unsafe_code)]
        unsafe impl OlcValue for $t {
            const IN_WINDOW: bool = false;
        }
    )*};
}
// Heap owners, and single-byte types with invalid bit patterns (a torn
// length can expose uninitialized bytes, so even `bool` stays latched).
olc_latched!(String, bool, char);

// SAFETY: latched materialization (`IN_WINDOW = false`) is always sound.
#[allow(unsafe_code)]
unsafe impl<T: Clone> OlcValue for Vec<T> {
    const IN_WINDOW: bool = false;
}
// SAFETY: latched materialization (`IN_WINDOW = false`) is always sound.
#[allow(unsafe_code)]
unsafe impl<T: Clone> OlcValue for Box<T> {
    const IN_WINDOW: bool = false;
}
// SAFETY: latched materialization (`IN_WINDOW = false`) is always sound
// (a torn refcount pointer must never be dereferenced, so `Arc` clones
// of *values* stay under the leaf latch; the node *handles* the descent
// itself copies are plain `Copy` slab indices validated by slot
// generation, a separate discipline — see `crate::arena`).
#[allow(unsafe_code)]
unsafe impl<T: ?Sized> OlcValue for std::sync::Arc<T> {
    const IN_WINDOW: bool = false;
}
// SAFETY: latched materialization (`IN_WINDOW = false`) is always sound
// (torn bytes could form a dangling reference, which is invalid even
// before any dereference).
#[allow(unsafe_code)]
unsafe impl<T: ?Sized> OlcValue for &T {
    const IN_WINDOW: bool = false;
}
// SAFETY: latched materialization (`IN_WINDOW = false`) is always sound
// (`Option`'s discriminant layout is unspecified, so torn bytes could
// form an invalid value).
#[allow(unsafe_code)]
unsafe impl<T: Clone> OlcValue for Option<T> {
    const IN_WINDOW: bool = false;
}
// SAFETY: an array of in-window-safe elements is itself plain old data;
// otherwise it inherits the latched path.
#[allow(unsafe_code)]
unsafe impl<T: OlcValue, const N: usize> OlcValue for [T; N] {
    const IN_WINDOW: bool = T::IN_WINDOW;
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    #[allow(clippy::assertions_on_constants)] // the consts ARE the subject
    fn in_window_gate_matches_type_shape() {
        // Plain old data may be cloned inside an unvalidated window…
        assert!(<u64 as OlcValue>::IN_WINDOW);
        assert!(<() as OlcValue>::IN_WINDOW);
        assert!(<[u32; 4] as OlcValue>::IN_WINDOW);
        // …heap owners and invalid-bit-pattern types never are.
        assert!(!<String as OlcValue>::IN_WINDOW);
        assert!(!<Vec<u8> as OlcValue>::IN_WINDOW);
        assert!(!<bool as OlcValue>::IN_WINDOW);
        assert!(!<Arc<u64> as OlcValue>::IN_WINDOW);
        assert!(!<&'static str as OlcValue>::IN_WINDOW);
        assert!(!<[String; 2] as OlcValue>::IN_WINDOW);
    }
}
