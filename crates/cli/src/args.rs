//! Tiny flag parser: `--key value` pairs plus boolean flags. Hand-rolled
//! to keep the dependency set at the workspace's approved list.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Parsed command arguments.
#[derive(Debug, Default)]
pub struct Args {
    values: BTreeMap<String, String>,
    flags: Vec<String>,
    /// Every key a lookup asked about, given or not — what
    /// [`Args::reject_unread`] checks the given keys against.
    read: RefCell<BTreeSet<String>>,
}

/// A parse or lookup failure, rendered to the user as-is.
#[derive(Debug)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parses `--key value` and `--flag` tokens.
    pub fn parse(argv: &[String]) -> Result<Args, ArgError> {
        let mut args = Args::default();
        let mut i = 0;
        while i < argv.len() {
            let token = &argv[i];
            let Some(key) = token.strip_prefix("--") else {
                return Err(ArgError(format!("unexpected argument '{token}'")));
            };
            // A value follows unless the next token is another flag or the
            // end of input.
            if i + 1 < argv.len() && !argv[i + 1].starts_with("--") {
                args.values.insert(key.to_owned(), argv[i + 1].clone());
                i += 2;
            } else {
                args.flags.push(key.to_owned());
                i += 1;
            }
        }
        Ok(args)
    }

    /// A required string value.
    pub fn required(&self, key: &str) -> Result<&str, ArgError> {
        self.get(key)
            .ok_or_else(|| ArgError(format!("missing required --{key}")))
    }

    /// An optional string value.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.read.borrow_mut().insert(key.to_owned());
        self.values.get(key).map(String::as_str)
    }

    /// An optional parsed value with a default.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ArgError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError(format!("--{key}: cannot parse '{v}'"))),
        }
    }

    /// Whether a boolean flag was given.
    pub fn flag(&self, key: &str) -> bool {
        self.read.borrow_mut().insert(key.to_owned());
        self.flags.iter().any(|f| f == key)
    }

    /// Whether the key appeared at all, as `--key value` or bare `--key`.
    pub fn has(&self, key: &str) -> bool {
        self.flag(key) || self.values.contains_key(key)
    }

    /// Fails on the first given key no lookup asked about: a command calls
    /// this once it has read all its options and before it does anything,
    /// so a misspelt option or one another command reads (`--kill-task` on
    /// `dssj join`) stops the run instead of being silently ignored.
    pub fn reject_unread(&self, command: &str) -> Result<(), ArgError> {
        let read = self.read.borrow();
        match self
            .values
            .keys()
            .chain(&self.flags)
            .find(|k| !read.contains(*k))
        {
            Some(key) => Err(ArgError(format!(
                "--{key}: not an option of dssj {command}"
            ))),
            None => Ok(()),
        }
    }

    /// Rejects `--key` if it was given, explaining why the combination is
    /// invalid. Commands use this to fail fast on incompatible flag combos
    /// (e.g. `--shed-watermark` with bistream input) instead of tripping an
    /// assert deep inside the join driver.
    pub fn forbid(&self, key: &str, why: &str) -> Result<(), ArgError> {
        if self.has(key) {
            return Err(ArgError(format!("--{key}: {why}")));
        }
        Ok(())
    }

    /// Rejects `--key` unless `--requires` was also given: some flags only
    /// make sense as a refinement of another (e.g. `--checkpoint-interval`
    /// without `--checkpoint-dir` would silently checkpoint nowhere).
    pub fn require_with(&self, key: &str, requires: &str) -> Result<(), ArgError> {
        if self.has(key) && !self.has(requires) {
            return Err(ArgError(format!(
                "--{key} requires --{requires} to be given as well"
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| (*x).to_owned()).collect()
    }

    #[test]
    fn parses_key_values_and_flags() {
        let a = Args::parse(&argv(&["--tau", "0.8", "--verbose", "--k", "4"])).unwrap();
        assert_eq!(a.required("tau").unwrap(), "0.8");
        assert_eq!(a.get_or("k", 1usize).unwrap(), 4);
        assert!(a.flag("verbose"));
        assert!(!a.flag("quiet"));
    }

    #[test]
    fn missing_required_reports_key() {
        let a = Args::parse(&argv(&[])).unwrap();
        let e = a.required("input").unwrap_err();
        assert!(e.to_string().contains("--input"));
    }

    #[test]
    fn bad_parse_reports_value() {
        let a = Args::parse(&argv(&["--k", "banana"])).unwrap();
        let e = a.get_or("k", 1usize).unwrap_err();
        assert!(e.to_string().contains("banana"));
    }

    #[test]
    fn positional_arguments_rejected() {
        assert!(Args::parse(&argv(&["stray"])).is_err());
    }

    #[test]
    fn forbid_rejects_present_keys_only() {
        let a = Args::parse(&argv(&["--shed-watermark", "4", "--verbose"])).unwrap();
        let e = a.forbid("shed-watermark", "not valid here").unwrap_err();
        assert!(e.to_string().contains("--shed-watermark"));
        assert!(e.to_string().contains("not valid here"));
        // Bare flags count as present too; absent keys pass.
        assert!(a.forbid("verbose", "no").is_err());
        assert!(a.forbid("sim", "no").is_ok());
    }

    #[test]
    fn require_with_enforces_the_companion_flag() {
        let a = Args::parse(&argv(&["--checkpoint-interval", "500"])).unwrap();
        let e = a
            .require_with("checkpoint-interval", "checkpoint-dir")
            .unwrap_err();
        assert!(e.to_string().contains("--checkpoint-dir"));
        let b = Args::parse(&argv(&[
            "--checkpoint-interval",
            "500",
            "--checkpoint-dir",
            "/tmp/x",
        ]))
        .unwrap();
        assert!(b
            .require_with("checkpoint-interval", "checkpoint-dir")
            .is_ok());
    }

    #[test]
    fn only_keys_a_lookup_asked_about_pass() {
        let a = Args::parse(&argv(&["--k", "4", "--windw", "9", "--verbose"])).unwrap();
        assert_eq!(a.get_or("k", 1usize).unwrap(), 4);
        a.flag("verbose");
        // A lookup of an absent key reads it too, but cannot excuse another.
        assert!(a.get("window").is_none());
        let e = a.reject_unread("join").unwrap_err();
        assert_eq!(e.to_string(), "--windw: not an option of dssj join");
        a.has("windw");
        assert!(a.reject_unread("join").is_ok());
    }

    #[test]
    fn defaults_apply() {
        let a = Args::parse(&argv(&[])).unwrap();
        assert_eq!(a.get_or("tau", 0.8f64).unwrap(), 0.8);
        assert!(a.get("missing").is_none());
    }
}
