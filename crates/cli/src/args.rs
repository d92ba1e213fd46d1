//! Minimal flag parsing (no external dependency): positional arguments
//! plus the `--flag` / `--flag value` options each command declares.

use std::collections::HashMap;
use std::fmt;

/// A parsed argument list.
#[derive(Debug, Default)]
pub struct Parsed {
    positional: Vec<String>,
    options: HashMap<String, Option<String>>,
}

/// Flag-parsing error with the offending token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError {
    pub message: String,
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for ArgError {}

fn err(message: impl Into<String>) -> ArgError {
    ArgError {
        message: message.into(),
    }
}

impl Parsed {
    /// Parses `argv`. `value_flags` lists the flags that consume a
    /// value and `bool_flags` the flags that do not; any other `--flag`
    /// is an error naming it.
    pub fn parse(
        argv: &[&str],
        value_flags: &[&str],
        bool_flags: &[&str],
    ) -> Result<Parsed, ArgError> {
        let mut parsed = Parsed::default();
        let mut it = argv.iter();
        while let Some(&token) = it.next() {
            if let Some(name) = token.strip_prefix("--") {
                if name.is_empty() {
                    return Err(err("bare `--` is not supported"));
                }
                if parsed.options.contains_key(name) {
                    return Err(err(format!("--{name} given twice")));
                }
                if value_flags.contains(&name) {
                    let value = it
                        .next()
                        .ok_or_else(|| err(format!("--{name} needs a value")))?;
                    parsed
                        .options
                        .insert(name.to_string(), Some(value.to_string()));
                } else if bool_flags.contains(&name) {
                    parsed.options.insert(name.to_string(), None);
                } else {
                    return Err(err(format!("unknown flag --{name}")));
                }
            } else {
                parsed.positional.push(token.to_string());
            }
        }
        Ok(parsed)
    }

    /// The `i`-th positional argument, or a usage error naming it.
    pub fn positional(&self, i: usize, name: &str) -> Result<&str, ArgError> {
        self.positional
            .get(i)
            .map(String::as_str)
            .ok_or_else(|| err(format!("missing <{name}> argument")))
    }

    /// Count of positional arguments.
    pub fn positional_len(&self) -> usize {
        self.positional.len()
    }

    /// Rejects unexpected extra positionals.
    pub fn expect_positionals(&self, n: usize) -> Result<(), ArgError> {
        if self.positional.len() > n {
            return Err(err(format!("unexpected argument {:?}", self.positional[n])));
        }
        Ok(())
    }

    /// Is a boolean flag present?
    pub fn flag(&self, name: &str) -> bool {
        self.options.contains_key(name)
    }

    /// A string-valued option.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.options.get(name).and_then(|v| v.as_deref())
    }

    /// A parsed numeric option with a default.
    pub fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, ArgError> {
        match self.value(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse::<T>()
                .map_err(|_| err(format!("--{name}: cannot parse {raw:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(argv: &[&str]) -> Result<Parsed, ArgError> {
        Parsed::parse(argv, &["k", "seed"], &["xml", "exact"])
    }

    #[test]
    fn positionals_and_flags() {
        let parsed = p(&["doc.xml", "--k", "5", "--xml", "//a"]).unwrap();
        assert_eq!(parsed.positional(0, "file").unwrap(), "doc.xml");
        assert_eq!(parsed.positional(1, "query").unwrap(), "//a");
        assert_eq!(parsed.positional_len(), 2);
        assert!(parsed.flag("xml"));
        assert!(!parsed.flag("exact"));
        assert_eq!(parsed.number::<usize>("k", 10).unwrap(), 5);
        assert_eq!(parsed.number::<usize>("seed", 42).unwrap(), 42);
    }

    #[test]
    fn missing_value_is_an_error() {
        let e = p(&["--k"]).unwrap_err();
        assert!(e.message.contains("needs a value"), "{e}");
    }

    #[test]
    fn duplicate_flag_is_an_error() {
        let e = p(&["--xml", "--xml"]).unwrap_err();
        assert!(e.message.contains("twice"), "{e}");
    }

    #[test]
    fn unknown_flag_is_an_error_naming_it() {
        let e = p(&["--xlm"]).unwrap_err();
        assert_eq!(e.message, "unknown flag --xlm");
    }

    #[test]
    fn bad_number_is_an_error() {
        let parsed = p(&["--k", "many"]).unwrap();
        assert!(parsed.number::<usize>("k", 1).is_err());
    }

    #[test]
    fn missing_positional_is_an_error() {
        let parsed = p(&[]).unwrap();
        assert!(parsed.positional(0, "file").is_err());
    }

    #[test]
    fn extra_positionals_rejected() {
        let parsed = p(&["a", "b", "c"]).unwrap();
        assert!(parsed.expect_positionals(2).is_err());
        assert!(parsed.expect_positionals(3).is_ok());
    }
}
