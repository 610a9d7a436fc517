//! Minimal flag parser: `--name value` pairs plus positional arguments.
//!
//! The approved dependency set has no argument-parsing crate, and the CLI's
//! needs are simple, so this module implements exactly what the subcommands
//! use: string/number/flag lookups with defaults and typed errors.

use std::collections::HashMap;

/// Parsed command line: a subcommand, its positional arguments, and flags.
#[derive(Debug, Clone, Default)]
pub struct Args {
    positional: Vec<String>,
    flags: HashMap<String, String>,
    switches: Vec<String>,
}

/// Argument-parsing error with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgsError(pub String);

impl std::fmt::Display for ArgsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ArgsError {}

impl Args {
    /// Parses raw arguments (excluding the program name). `--name value`
    /// becomes a flag; `--name` followed by another `--flag` or end-of-input
    /// becomes a boolean switch; everything else is positional.
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Result<Self, ArgsError> {
        let mut args = Args::default();
        let mut iter = raw.into_iter().peekable();
        while let Some(token) = iter.next() {
            if let Some(name) = token.strip_prefix("--") {
                if name.is_empty() {
                    return Err(ArgsError("empty flag name '--'".into()));
                }
                match iter.peek() {
                    Some(next) if !next.starts_with("--") => {
                        let value = iter.next().expect("peeked");
                        args.flags.insert(name.to_string(), value);
                    }
                    _ => args.switches.push(name.to_string()),
                }
            } else {
                args.positional.push(token);
            }
        }
        Ok(args)
    }

    /// Positional argument by index.
    pub fn positional(&self, index: usize) -> Option<&str> {
        self.positional.get(index).map(String::as_str)
    }

    /// Number of positional arguments.
    #[allow(dead_code)] // exercised by tests; kept for subcommand symmetry
    pub fn positional_len(&self) -> usize {
        self.positional.len()
    }

    /// String flag, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    /// String flag with a default.
    pub fn get_or<'a>(&'a self, name: &str, default: &'a str) -> &'a str {
        self.get(name).unwrap_or(default)
    }

    /// Required string flag.
    pub fn require(&self, name: &str) -> Result<&str, ArgsError> {
        self.flags
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| ArgsError(format!("missing required flag --{name}")))
    }

    /// Typed flag with a default.
    ///
    /// # Errors
    ///
    /// Returns [`ArgsError`] when the value does not parse as `T`.
    pub fn parse_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, ArgsError> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| ArgsError(format!("flag --{name}: cannot parse '{raw}'"))),
        }
    }

    /// Rejects every flag and switch that `usage` does not name as
    /// `--name`, so a misspelled or retired flag fails instead of being
    /// silently ignored.
    ///
    /// # Errors
    ///
    /// Returns [`ArgsError`] naming each unknown flag.
    pub fn reject_unknown(&self, usage: &str) -> Result<(), ArgsError> {
        let known: Vec<&str> = usage
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter_map(|word| word.strip_prefix("--"))
            .collect();
        let mut unknown: Vec<String> = self
            .flags
            .keys()
            .chain(&self.switches)
            .filter(|name| !known.contains(&name.as_str()))
            .map(|name| format!("--{name}"))
            .collect();
        if unknown.is_empty() {
            return Ok(());
        }
        unknown.sort_unstable();
        Err(ArgsError(format!("unknown flag {}", unknown.join(", "))))
    }

    /// Whether a boolean switch was given.
    #[allow(dead_code)] // exercised by tests; kept for subcommand symmetry
    pub fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn positional_and_flags() {
        let a = parse(&["train", "--data", "file.txt", "--seed", "7"]);
        assert_eq!(a.positional(0), Some("train"));
        assert_eq!(a.positional_len(), 1);
        assert_eq!(a.require("data").unwrap(), "file.txt");
        assert_eq!(a.parse_or("seed", 0u64).unwrap(), 7);
    }

    #[test]
    fn defaults_apply() {
        let a = parse(&["x"]);
        assert_eq!(a.get_or("attr", "rt"), "rt");
        assert_eq!(a.parse_or("density", 0.1f64).unwrap(), 0.1);
    }

    #[test]
    fn switches_without_values() {
        let a = parse(&["run", "--verbose", "--out", "f", "--quiet"]);
        assert!(a.switch("verbose"));
        assert!(a.switch("quiet"));
        assert!(!a.switch("missing"));
        assert_eq!(a.require("out").unwrap(), "f");
    }

    #[test]
    fn negative_numbers_are_values() {
        let a = parse(&["train", "--alpha", "-0.007"]);
        assert_eq!(a.parse_or("alpha", 0.0f64).unwrap(), -0.007);
    }

    #[test]
    fn unknown_flags_are_named() {
        let usage = "amf-qos train --data FILE [--attr rt|tp] [--guard]";
        let ok = parse(&["train", "--data", "f", "--attr", "tp", "--guard"]);
        assert!(ok.reject_unknown(usage).is_ok());
        let err = parse(&["train", "--data", "f", "--shards", "4", "--gaurd"])
            .reject_unknown(usage)
            .unwrap_err();
        assert_eq!(err.0, "unknown flag --gaurd, --shards");
        // Placeholders and alternatives in the usage text are not flags.
        assert!(parse(&["x", "--rt", "1"]).reject_unknown(usage).is_err());
    }

    #[test]
    fn missing_required_flag_errors() {
        let a = parse(&["train"]);
        let err = a.require("data").unwrap_err();
        assert!(err.to_string().contains("--data"));
    }

    #[test]
    fn unparsable_value_errors() {
        let a = parse(&["x", "--seed", "banana"]);
        assert!(a.parse_or("seed", 0u64).is_err());
    }

    #[test]
    fn empty_flag_rejected() {
        assert!(Args::parse(vec!["--".to_string()]).is_err());
    }
}
