//! The committed key-hint table (`keys::KEY_HINTS`) against the search
//! it replaces: one entry of each key size, replayed with
//! `RsaKeyPair::from_hint` and no fallback, must give exactly the key
//! `RsaKeyPair::generate` searches for. The full table is checked the
//! same way by `cargo run --release -p tlsfoe-bench --bin key_hints --
//! --check`.

use tlsfoe::crypto::RsaKeyPair;
use tlsfoe::population::keys::{key_drbg, KEY_HINTS};

#[test]
fn committed_hints_replay_to_the_searched_keys() {
    let mut sizes: Vec<usize> = KEY_HINTS.iter().map(|&(_, bits, _)| bits).collect();
    sizes.sort_unstable();
    sizes.dedup();
    assert!(sizes.contains(&512) && sizes.contains(&2048), "table sizes {sizes:?}");
    for bits in sizes {
        let &(seed, _, hint) =
            KEY_HINTS.iter().find(|&&(_, b, _)| b == bits).expect("a size listed above");
        let replayed = RsaKeyPair::from_hint(bits, hint, &mut key_drbg(seed))
            .unwrap_or_else(|e| panic!("({seed:#x}, {bits}) hint {hint:?}: {e}"));
        let searched = RsaKeyPair::generate(bits, &mut key_drbg(seed)).expect("keygen");
        assert_eq!(
            (&replayed.public, &replayed.d, &replayed.p, &replayed.q),
            (&searched.public, &searched.d, &searched.p, &searched.q),
            "({seed:#x}, {bits}) hint {hint:?}"
        );
    }
}
