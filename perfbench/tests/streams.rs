//! The same seed gives byte-identical inputs; another seed does not;
//! and every `serve-churn` request has a cache key no other has.

use std::collections::HashSet;

use perfbench::streams::{
    churn_body, churn_open_loop, cli_commands, hot_open_loop, hot_set, line, HELD_OUT_SEED,
};
use vpd_serve::{Request, ScenarioKey};

#[test]
fn one_seed_gives_byte_identical_inputs() {
    for seed in [1, 7, HELD_OUT_SEED] {
        assert_eq!(cli_commands(seed), cli_commands(seed));
        assert_eq!(hot_set(seed), hot_set(seed));
        assert_eq!(
            hot_open_loop(seed, 3, 600.0, 2.0),
            hot_open_loop(seed, 3, 600.0, 2.0)
        );
        assert_eq!(
            churn_open_loop(seed, 3, 50.0, 2.0),
            churn_open_loop(seed, 3, 50.0, 2.0)
        );
        let a: Vec<String> = (0..64).map(|i| churn_body(seed, 1, i)).collect();
        let b: Vec<String> = (0..64).map(|i| churn_body(seed, 1, i)).collect();
        assert_eq!(a, b);
    }
}

#[test]
fn another_seed_gives_other_inputs() {
    assert_ne!(cli_commands(1), cli_commands(2));
    assert_ne!(hot_set(1), hot_set(2));
    assert_ne!(
        hot_open_loop(1, 0, 600.0, 1.0),
        hot_open_loop(2, 0, 600.0, 1.0)
    );
    assert_ne!(churn_body(1, 0, 0), churn_body(2, 0, 0));
    // Slices of one run differ from each other too.
    assert_ne!(
        hot_open_loop(1, 0, 600.0, 1.0),
        hot_open_loop(1, 1, 600.0, 1.0)
    );
}

#[test]
fn the_command_lists_keep_their_names_across_seeds() {
    let names = |seed| {
        let (l, h) = cli_commands(seed);
        let mut n: Vec<String> = l.into_iter().chain(h).map(|c| c.name).collect();
        n.sort();
        n
    };
    assert_eq!(names(1), names(HELD_OUT_SEED));
    assert_eq!(names(1).len(), 22);
}

#[test]
fn every_request_parses() {
    let (light, heavy) = hot_set(5);
    for b in light.iter().chain(&heavy) {
        Request::parse_line(&line(1, b)).unwrap_or_else(|e| panic!("{b}: {}", e.message));
    }
    for i in 0..40 {
        let b = churn_body(5, 0, i);
        Request::parse_line(&line(1, &b)).unwrap_or_else(|e| panic!("{b}: {}", e.message));
    }
}

#[test]
fn churn_keys_never_repeat() {
    let mut keys = HashSet::new();
    let mut n = 0;
    for (_, l) in churn_open_loop(9, 0, 400.0, 2.0)
        .into_iter()
        .chain(churn_open_loop(9, 1, 400.0, 2.0))
        .chain((0..400).map(|i| (0.0, line(1, &churn_body(9, 1, i)))))
    {
        let req = Request::parse_line(&l).expect("churn request parses");
        let key = ScenarioKey::from_work(&req.work).expect("churn requests are cacheable");
        assert!(keys.insert(key), "repeated cache key: {l}");
        n += 1;
    }
    assert!(n > 1500, "{n}");
}
