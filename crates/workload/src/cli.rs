//! The one flag table every binary in the workspace parses with: a
//! zero-dependency cursor over `argv` that owns `--help`, the
//! missing-value, bad-number, out-of-range and unknown-flag messages,
//! exit code 2, and the parsers for the value spellings several
//! binaries share (`--mix`, comma lists, `*-ms` / `*-us` durations).

use std::fmt::Display;
use std::ops::RangeInclusive;
use std::str::FromStr;
use std::time::Duration;

/// A cursor over a binary's arguments: the caller loops on
/// [`Flags::next_flag`], matches the flag name, and pulls its value with
/// one of the typed accessors (see `live.rs` for the idiom).
#[derive(Debug)]
pub struct Flags {
    usage: String,
    args: std::vec::IntoIter<String>,
    /// The flag most recently returned by [`Flags::next_flag`], named
    /// in every error message.
    flag: String,
}

impl Flags {
    /// A cursor over `args` (the program name already stripped).
    pub fn new(usage: impl Into<String>, args: impl IntoIterator<Item = String>) -> Self {
        Flags {
            usage: usage.into(),
            args: args.into_iter().collect::<Vec<_>>().into_iter(),
            flag: String::new(),
        }
    }

    /// A cursor over the process arguments.
    pub fn from_env(usage: impl Into<String>) -> Self {
        Flags::new(usage, std::env::args().skip(1))
    }

    /// Runs `parse`; on error prints `error: <message>` and the usage
    /// text to stderr and exits with code 2.
    pub fn parse_or_exit<T>(mut self, parse: impl FnOnce(&mut Flags) -> Result<T, String>) -> T {
        parse(&mut self).unwrap_or_else(|msg| {
            eprintln!("error: {msg}\n\n{}", self.usage);
            std::process::exit(2);
        })
    }

    /// The next argument, or `None` at the end. `-h` / `--help` prints
    /// the usage text and exits 0.
    pub fn next_flag(&mut self) -> Option<String> {
        self.flag = self.args.next()?;
        if self.flag == "-h" || self.flag == "--help" {
            print!("{}", self.usage);
            std::process::exit(0);
        }
        Some(self.flag.clone())
    }

    /// The error for a flag the caller does not know.
    pub fn unknown(&self) -> String {
        format!("unknown flag {:?}", self.flag)
    }

    /// The current flag's value, parsed as `T`.
    pub fn value<T: FromStr>(&mut self) -> Result<T, String>
    where
        T::Err: Display,
    {
        let raw = self
            .args
            .next()
            .ok_or_else(|| format!("{} requires a value", self.flag))?;
        raw.parse().map_err(|e| format!("{} {raw}: {e}", self.flag))
    }

    /// The current flag's value, rejected unless `>= min`.
    pub fn at_least<T>(&mut self, min: T) -> Result<T, String>
    where
        T: FromStr + PartialOrd + Display,
        T::Err: Display,
    {
        let v: T = self.value()?;
        if v >= min {
            Ok(v)
        } else {
            Err(format!("{} must be at least {min}", self.flag))
        }
    }

    /// The current flag's value, rejected unless inside `range`.
    pub fn in_range<T>(&mut self, range: RangeInclusive<T>) -> Result<T, String>
    where
        T: FromStr + PartialOrd + Display,
        T::Err: Display,
    {
        let v: T = self.value()?;
        if range.contains(&v) {
            Ok(v)
        } else {
            let (lo, hi) = (range.start(), range.end());
            Err(format!("{} must be in {lo}..={hi}", self.flag))
        }
    }

    /// The current flag's value as a finite rate `> 0`.
    pub fn positive(&mut self) -> Result<f64, String> {
        let v: f64 = self.value()?;
        if v.is_finite() && v > 0.0 {
            Ok(v)
        } else {
            Err(format!("{} must be positive", self.flag))
        }
    }

    /// The current flag's value as a non-empty comma-separated list.
    pub fn list<T: FromStr>(&mut self) -> Result<Vec<T>, String>
    where
        T::Err: Display,
    {
        let raw: String = self.value()?;
        raw.split(',')
            .map(|p| p.trim().parse::<T>())
            .collect::<Result<_, _>>()
            .map_err(|e| format!("{} {raw}: {e}", self.flag))
    }

    /// An operation mix `S,I,D`: three probabilities summing to 1.
    pub fn mix(&mut self) -> Result<(f64, f64, f64), String> {
        let parts: Vec<f64> = self.list()?;
        let &[s, i, d] = parts.as_slice() else {
            return Err(format!("{} needs three components S,I,D", self.flag));
        };
        if !crate::ops::mix_is_valid([s, i, d]) {
            return Err(format!("{} {s}/{i}/{d} does not sum to 1", self.flag));
        }
        Ok((s, i, d))
    }

    /// A whole number of milliseconds, at least `min`.
    pub fn millis(&mut self, min: u64) -> Result<Duration, String> {
        self.at_least(min).map(Duration::from_millis)
    }

    /// A whole number of microseconds, at least `min`.
    pub fn micros(&mut self, min: u64) -> Result<Duration, String> {
        self.at_least(min).map(Duration::from_micros)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Flags {
        let mut f = Flags::new("usage\n", args.iter().map(|s| s.to_string()));
        f.next_flag();
        f
    }

    #[test]
    fn values_parse_and_every_error_names_the_flag() {
        assert_eq!(flags(&["--n", "7"]).at_least(7u64), Ok(7));
        assert_eq!(flags(&["--n", "255"]).in_range(1..=255usize), Ok(255));
        assert_eq!(flags(&["--l", "0.5"]).positive(), Ok(0.5));
        assert_eq!(flags(&["--l", "1, 2,3"]).list::<u32>(), Ok(vec![1, 2, 3]));
        assert_eq!(flags(&["--d", "0"]).micros(0), Ok(Duration::ZERO));

        let err = |r: Result<u64, String>| r.unwrap_err();
        assert_eq!(err(flags(&["--n"]).value()), "--n requires a value");
        assert!(err(flags(&["--n", "x"]).value()).starts_with("--n x: "));
        assert_eq!(
            err(flags(&["--n", "0"]).at_least(1)),
            "--n must be at least 1"
        );
        let out_of_range = err(flags(&["--n", "256"]).in_range(1..=255));
        assert_eq!(out_of_range, "--n must be in 1..=255");
        for bad in ["-5", "0", "inf", "NaN"] {
            let e = flags(&["--l", bad]).positive().unwrap_err();
            assert_eq!(e, "--l must be positive");
        }
        let e = flags(&["--d", "0"]).millis(1).unwrap_err();
        assert_eq!(e, "--d must be at least 1");
        assert_eq!(flags(&["--bogus"]).unknown(), "unknown flag \"--bogus\"");
    }

    #[test]
    fn mix_rejects_malformed_components_instead_of_dropping_them() {
        assert_eq!(flags(&["--mix", "0, 1 ,0"]).mix(), Ok((0.0, 1.0, 0.0)));
        // The old `analyze` parser filtered the unparsable component out
        // and accepted the remaining three.
        for bad in ["0.3,x,0.5,0.2", "0.5,0.5", "0.5,0.5,0.5", "1.5,-0.5,0"] {
            assert!(flags(&["--mix", bad]).mix().is_err(), "{bad}");
        }
    }
}
