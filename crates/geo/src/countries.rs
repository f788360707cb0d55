//! Country registry.
//!
//! Every country named in the paper's Tables 3 and 7 is present with its
//! ISO-3166-ish code; the long tail ("Other (215)" / "Other (209)") is
//! modelled by synthetic `T##` territory codes so the simulated studies
//! can, like the real ones, observe proxied users in 140+ countries.

use std::sync::OnceLock;

/// A compact country identifier (interned index into the registry).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CountryCode(pub u16);

/// A registry entry.
#[derive(Debug, Clone)]
pub struct Country {
    /// Two-letter code (or `T##` for synthetic tail territories).
    pub code: &'static str,
    /// Display name as the paper prints it.
    pub name: &'static str,
}

/// Named countries from the paper (Tables 3 and 7, targeting §4.2/§6.2).
pub const NAMED: &[Country] = &[
    Country { code: "US", name: "US" },
    Country { code: "BR", name: "Brazil" },
    Country { code: "FR", name: "France" },
    Country { code: "GB", name: "UK" },
    Country { code: "RO", name: "Romania" },
    Country { code: "DE", name: "Germany" },
    Country { code: "CA", name: "Canada" },
    Country { code: "TR", name: "Turkey" },
    Country { code: "IN", name: "India" },
    Country { code: "ES", name: "Spain" },
    Country { code: "RU", name: "Russia" },
    Country { code: "IT", name: "Italy" },
    Country { code: "KR", name: "S.Korea" },
    Country { code: "PT", name: "Portugal" },
    Country { code: "PL", name: "Poland" },
    Country { code: "UA", name: "Ukraine" },
    Country { code: "BE", name: "Belgium" },
    Country { code: "JP", name: "Japan" },
    Country { code: "NL", name: "Netherlands" },
    Country { code: "TW", name: "Taiwan" },
    Country { code: "CN", name: "China" },
    Country { code: "EG", name: "Egypt" },
    Country { code: "PK", name: "Pakistan" },
    Country { code: "ID", name: "Indonesia" },
    Country { code: "GR", name: "Greece" },
    Country { code: "CZ", name: "Czech Rep." },
    Country { code: "DK", name: "Denmark" },
    Country { code: "IE", name: "Ireland" },
];

/// Number of synthetic tail territories (keeps total territory count at
/// 228, matching "228 countries and territories" under Figure 7).
pub const TAIL_COUNT: u16 = 200;

/// Total number of registered territories.
pub fn territory_count() -> u16 {
    NAMED.len() as u16 + TAIL_COUNT
}

/// Look up registry info for a code index.
///
/// Tail territories resolve to `T##` / `Territory #` strings built once
/// per process, so every lookup of one code returns the same
/// `&'static str`s and allocates nothing.
pub fn info(code: CountryCode) -> Country {
    let idx = usize::from(code.0);
    if let Some(named) = NAMED.get(idx) {
        return named.clone();
    }
    let tail_index = idx - NAMED.len();
    assert!(tail_index < usize::from(TAIL_COUNT), "country code {idx} out of registry");
    let (code, name) = &tail_names()[tail_index];
    Country { code, name }
}

/// The synthetic tail's `(code, name)` pairs, index `i` holding
/// `("T{i:02}", "Territory {i}")`; built on first use and kept for the
/// life of the process.
fn tail_names() -> &'static [(String, String)] {
    static TAIL: OnceLock<Vec<(String, String)>> = OnceLock::new();
    TAIL.get_or_init(|| {
        (0..TAIL_COUNT).map(|i| (format!("T{i:02}"), format!("Territory {i}"))).collect()
    })
}

/// Find a named country's code index by its two-letter code.
pub fn by_code(code: &str) -> Option<CountryCode> {
    NAMED.iter().position(|c| c.code == code).map(|i| CountryCode(i as u16))
}

/// Iterate all codes (named + tail).
pub fn all_codes() -> impl Iterator<Item = CountryCode> {
    (0..territory_count()).map(CountryCode)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_countries_resolvable() {
        for c in ["US", "CN", "UA", "RU", "EG", "PK", "BR", "GB"] {
            let code = by_code(c).unwrap_or_else(|| panic!("{c} missing"));
            assert_eq!(info(code).code, c);
        }
        assert!(by_code("ZZ").is_none());
    }

    #[test]
    fn registry_size_matches_paper() {
        // Figure 7 caption: 228 countries and territories.
        assert_eq!(territory_count(), 228);
        assert_eq!(all_codes().count(), 228);
    }

    #[test]
    fn tail_codes_distinct() {
        let a = info(CountryCode(NAMED.len() as u16));
        let b = info(CountryCode(NAMED.len() as u16 + 1));
        assert_ne!(a.code, b.code);
        assert!(a.code.starts_with('T'));
    }

    #[test]
    fn tail_registry_is_built_once_with_stable_bytes() {
        // Tables 3/7, the Figure 7 heatmap and the JSONL export print
        // these bytes; every lookup must hand back the same strings
        // rather than a fresh allocation.
        for i in 0..TAIL_COUNT {
            let code = CountryCode(NAMED.len() as u16 + i);
            let first = info(code);
            assert_eq!(first.code, format!("T{i:02}"));
            assert_eq!(first.name, format!("Territory {i}"));
            let again = info(code);
            assert!(std::ptr::eq(first.code, again.code), "code of tail {i} reallocated");
            assert!(std::ptr::eq(first.name, again.name), "name of tail {i} reallocated");
        }
    }

    #[test]
    fn no_duplicate_named_codes() {
        let mut codes: Vec<&str> = NAMED.iter().map(|c| c.code).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), NAMED.len());
    }

    #[test]
    #[should_panic(expected = "out of registry")]
    fn out_of_range_panics() {
        info(CountryCode(territory_count()));
    }
}
