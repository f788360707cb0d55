//! Golden output digests: `golden.txt` holds one `workload seed sha256`
//! line per known-good output.

pub const GOLDEN: &str = include_str!("../golden.txt");

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// A golden digest exists for this workload and seed, and matches.
    Verified,
    /// No golden digest for this seed.
    Unverified,
    /// A golden digest exists and differs.
    Mismatch { expected: String },
}

pub fn check(table: &str, workload: &str, seed: u64, digest: &str) -> Verdict {
    let expected =
        table.lines().map(str::trim).filter(|l| !l.is_empty() && !l.starts_with('#')).find_map(
            |l| match l.split_whitespace().collect::<Vec<_>>()[..] {
                [w, s, d] if w == workload && s.parse() == Ok(seed) => Some(d),
                _ => None,
            },
        );
    match expected {
        None => Verdict::Unverified,
        Some(d) if d == digest => Verdict::Verified,
        Some(d) => Verdict::Mismatch { expected: d.to_string() },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::ALL;

    #[test]
    fn every_workload_has_goldens_for_both_seeds() {
        for w in ALL {
            for seed in [2014, 1] {
                let hit = GOLDEN.lines().any(|l| l.starts_with(&format!("{} {seed} ", w.name())));
                assert!(hit, "no golden digest for {} seed {seed}", w.name());
            }
        }
    }

    #[test]
    fn committed_digest_verifies_and_a_perturbed_one_fails() {
        let line = GOLDEN.lines().find(|l| l.starts_with("bulk_sessions 2014 ")).unwrap();
        let digest = line.split_whitespace().nth(2).unwrap();
        assert_eq!(check(GOLDEN, "bulk_sessions", 2014, digest), Verdict::Verified);

        let mut perturbed: Vec<char> = digest.chars().collect();
        perturbed[0] = if perturbed[0] == '0' { '1' } else { '0' };
        let perturbed: String = perturbed.into_iter().collect();
        assert_eq!(
            check(GOLDEN, "bulk_sessions", 2014, &perturbed),
            Verdict::Mismatch { expected: digest.to_string() }
        );
    }

    #[test]
    fn unknown_seed_is_unverified() {
        assert_eq!(check(GOLDEN, "bulk_sessions", 987_654_321, "00"), Verdict::Unverified);
        assert_eq!(check("# only a comment\n", "paper_e2e", 2014, "00"), Verdict::Unverified);
    }
}
