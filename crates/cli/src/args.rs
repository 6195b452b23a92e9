//! A small, dependency-free argument parser: `--key value` and `--flag`
//! options after a subcommand.

use std::collections::BTreeMap;
use std::fmt;

/// Parsed command line: a subcommand plus options.
#[derive(Clone, Debug, Default)]
pub struct Args {
    /// The subcommand (first non-flag argument).
    pub command: Option<String>,
    opts: BTreeMap<String, String>,
    flags: Vec<String>,
}

/// A user-facing argument error.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

impl From<rfsp_run::RunError> for ArgError {
    fn from(e: rfsp_run::RunError) -> Self {
        ArgError(e.0)
    }
}

impl Args {
    /// Parse raw arguments (without the program name). `--key value` pairs
    /// become options; a `--key` followed by another `--…` (or nothing) is
    /// a boolean flag.
    ///
    /// # Errors
    ///
    /// Rejects stray positional arguments after the subcommand.
    pub fn parse<I, S>(raw: I) -> Result<Self, ArgError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut args = Args::default();
        let mut iter = raw.into_iter().map(Into::into).peekable();
        while let Some(tok) = iter.next() {
            if let Some(key) = tok.strip_prefix("--") {
                let takes_value = iter.peek().is_some_and(|next| !next.starts_with("--"));
                if takes_value {
                    let value = iter.next().expect("peeked");
                    args.opts.insert(key.to_string(), value);
                } else {
                    args.flags.push(key.to_string());
                }
            } else if args.command.is_none() {
                args.command = Some(tok);
            } else {
                return Err(ArgError(format!("unexpected positional argument '{tok}'")));
            }
        }
        Ok(args)
    }

    /// String option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.opts.get(key).map(String::as_str)
    }

    /// String option with a default.
    pub fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.get(key).unwrap_or(default)
    }

    /// Boolean flag.
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// Every `--key` given, options and flags alike, in no particular
    /// order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.opts.keys().chain(&self.flags).map(String::as_str)
    }

    /// Parsed numeric option with a default.
    ///
    /// # Errors
    ///
    /// Reports unparseable values with the offending key.
    pub fn get_parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ArgError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ArgError(format!("invalid value '{v}' for --{key}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_command_options_and_flags() {
        let a = Args::parse(["writeall", "--n", "64", "--trace", "--algo", "x"]).unwrap();
        assert_eq!(a.command.as_deref(), Some("writeall"));
        assert_eq!(a.get("n"), Some("64"));
        assert_eq!(a.get("algo"), Some("x"));
        assert!(a.flag("trace"));
        assert!(!a.flag("quiet"));
        let mut keys: Vec<&str> = a.keys().collect();
        keys.sort_unstable();
        assert_eq!(keys, ["algo", "n", "trace"]);
    }

    #[test]
    fn numeric_defaults_and_errors() {
        let a = Args::parse(["run", "--n", "12"]).unwrap();
        assert_eq!(a.get_parsed("n", 5usize).unwrap(), 12);
        assert_eq!(a.get_parsed("p", 5usize).unwrap(), 5);
        let a = Args::parse(["run", "--n", "abc"]).unwrap();
        assert!(a.get_parsed::<usize>("n", 0).is_err());
    }

    #[test]
    fn trailing_flag_is_boolean() {
        let a = Args::parse(["x", "--verbose"]).unwrap();
        assert!(a.flag("verbose"));
    }

    #[test]
    fn rejects_extra_positionals() {
        let Err(e) = Args::parse(["a", "b"]) else { panic!("positional accepted") };
        assert!(e.0.contains("unexpected positional argument 'b'"), "{e}");
        // The offender is named even when buried among valid options.
        let Err(e) = Args::parse(["cmd", "--n", "4", "oops", "--p", "2"]) else {
            panic!("positional accepted")
        };
        assert!(e.0.contains("'oops'"), "{e}");
    }

    #[test]
    fn parse_errors_name_the_key_and_value() {
        let a = Args::parse(["run", "--n", "abc", "--rate", "fast"]).unwrap();
        let Err(e) = a.get_parsed::<u64>("n", 0) else { panic!("'abc' parsed as u64") };
        assert_eq!(e.0, "invalid value 'abc' for --n");
        let Err(e) = a.get_parsed::<f64>("rate", 0.0) else { panic!("'fast' parsed as f64") };
        assert_eq!(e.0, "invalid value 'fast' for --rate");
        // Error text round-trips through Display and From<RunError>.
        assert_eq!(e.to_string(), "invalid value 'fast' for --rate");
        let converted: ArgError = rfsp_run::RunError("spool on fire".into()).into();
        assert_eq!(converted.0, "spool on fire");
    }

    #[test]
    fn value_looking_like_flag_becomes_boolean() {
        // `--key --other` treats `--key` as a flag, not an option with the
        // value "--other" — the documented (if sharp-edged) behaviour.
        let a = Args::parse(["cmd", "--checkpoint", "--verbose"]).unwrap();
        assert_eq!(a.get("checkpoint"), None);
        assert!(a.flag("checkpoint") && a.flag("verbose"));
    }
}
