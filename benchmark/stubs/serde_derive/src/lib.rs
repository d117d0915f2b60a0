//! Derives for the offline `serde` stand-in: each emits an empty impl of
//! the marker trait and accepts (and ignores) `#[serde(...)]` attributes.

use proc_macro::{TokenStream, TokenTree};

/// Name of the struct or enum a derive input declares.
///
/// # Panics
///
/// Panics on generic types: no type in the repository that derives the
/// serde traits is generic, and a marker impl for one would need its
/// parameter list copied.
fn type_name(input: TokenStream) -> String {
    let mut tokens = input.into_iter();
    while let Some(tt) = tokens.next() {
        let TokenTree::Ident(ident) = tt else {
            continue;
        };
        let kw = ident.to_string();
        if kw != "struct" && kw != "enum" {
            continue;
        }
        let Some(TokenTree::Ident(name)) = tokens.next() else {
            panic!("serde stand-in derive: expected a type name after `{kw}`");
        };
        if let Some(TokenTree::Punct(p)) = tokens.next() {
            assert!(
                p.as_char() != '<',
                "serde stand-in derive: generic type `{name}` is not supported"
            );
        }
        return name.to_string();
    }
    panic!("serde stand-in derive: input is neither a struct nor an enum");
}

/// Emits `impl serde::Serialize for T {}`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    format!("impl ::serde::Serialize for {} {{}}", type_name(input))
        .parse()
        .expect("generated impl parses")
}

/// Emits `impl<'de> serde::Deserialize<'de> for T {}`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    format!(
        "impl<'de> ::serde::Deserialize<'de> for {} {{}}",
        type_name(input)
    )
    .parse()
    .expect("generated impl parses")
}
