//! Offline stand-in for `serde_json`.
//!
//! The `serde` stand-in carries no data model, so nothing can be encoded
//! or decoded: every function returns [`Error`]. That keeps the
//! repository's scenario loader and report printer compiling inside the
//! benchmark build, which never calls them.

use std::fmt;

use serde::{Deserialize, Serialize};

/// The one error this stand-in produces.
#[derive(Debug)]
pub struct Error;

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("serde_json is an offline stand-in in this build; JSON is unavailable")
    }
}

impl std::error::Error for Error {}

/// `Result` with [`Error`].
pub type Result<T> = std::result::Result<T, Error>;

/// Always fails: the stand-in cannot decode.
pub fn from_str<'a, T: Deserialize<'a>>(_s: &'a str) -> Result<T> {
    Err(Error)
}

/// Always fails: the stand-in cannot encode.
pub fn to_string<T: Serialize + ?Sized>(_value: &T) -> Result<String> {
    Err(Error)
}

/// Always fails: the stand-in cannot encode.
pub fn to_string_pretty<T: Serialize + ?Sized>(_value: &T) -> Result<String> {
    Err(Error)
}
