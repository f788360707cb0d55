// Known-good fixture for rule `panic-free`: fallible paths return
// typed errors, slices are accessed through checked combinators,
// arrays are taken apart by `let` patterns, and unwraps live only
// under #[cfg(test)].

pub fn first(v: &[u8]) -> Result<u8, FixtureError> {
    match v.first() {
        Some(head) => Ok(*head),
        None => Err(FixtureError::Empty),
    }
}

pub fn must(o: Option<u8>) -> Result<u8, FixtureError> {
    o.ok_or(FixtureError::Empty)
}

pub fn swap(pair: [u8; 2]) -> [u8; 2] {
    let [a, b] = pair;
    [b, a]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_of_nonempty() {
        assert_eq!(first(&[7]).unwrap(), 7);
    }
}
