//! Software prefetch: [`prefetch`] asks the memory system for a value's
//! cache lines before the code that reads them runs.
//!
//! A latched B-tree step otherwise waits on its misses one after another:
//! the lock word, then the header and key run, then the child id or the
//! leaf's values. Requesting a node's lines when its id is known lets the
//! misses overlap, so a level costs about one memory round trip (the
//! pB+-tree idea of Chen, Gibbons and Mowry, "Improving Index Performance
//! through Prefetching", SIGMOD 2001).

/// The cache-line size the request steps by.
#[cfg(target_arch = "x86_64")]
const LINE: usize = 64;

/// Requests every cache line of `*value` into the first-level cache and
/// returns at once: the loads that follow find the lines in flight. A
/// hint only — it never faults and changes no value — so it is safe
/// whatever `value` holds. A no-op off x86_64.
#[inline]
pub fn prefetch<T: ?Sized>(value: &T) {
    #[cfg(target_arch = "x86_64")]
    {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let start = (value as *const T).cast::<i8>();
        let first = start.addr() & !(LINE - 1);
        for line in (first..start.addr() + size_of_val(value)).step_by(LINE) {
            // SAFETY: `prefetch` is in the x86_64 baseline (SSE), reads
            // no memory architecturally and never faults, whatever the
            // address; `line` lies in or just before `*value` anyway.
            #[allow(unsafe_code)]
            unsafe {
                _mm_prefetch::<_MM_HINT_T0>(start.with_addr(line));
            }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = value;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn any_size_and_alignment_is_a_hint_only() {
        let words = [7u64; 300];
        prefetch(&words);
        prefetch(&words[3..]);
        prefetch(&words[..0]);
        prefetch(&());
        prefetch("an unaligned str");
        assert_eq!(words.iter().sum::<u64>(), 7 * 300);
    }
}
