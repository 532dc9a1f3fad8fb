//! The output audit catches an injected wrong result.

use std::collections::BTreeMap;

use perfbench::audit::{check_analyze, check_matrix, mismatch, result_of, Oracle};
use perfbench::cli::check_stdout;
use perfbench::streams::{cli_commands, hot_set, line};
use vpd_report::Json;
use vpd_serve::{Dispatcher, Request, Response};

/// A response line as the server writes it.
fn served(line: &str, dispatcher: &Dispatcher) -> String {
    let req = Request::parse_line(line).expect("request parses");
    let (json, cached) = dispatcher.dispatch(&req.work).expect("dispatch");
    Response::ok(req.id, req.work.kind(), cached, json)
        .to_json()
        .to_string()
}

#[test]
fn served_results_match_the_oracle_and_a_tampered_one_does_not() {
    let oracle = Oracle::default();
    let warm = Dispatcher::new(32);
    let (light, heavy) = hot_set(3);
    for b in light.iter().chain(&heavy) {
        let l = line(7, b);
        let want = oracle.result(&l);
        assert!(want.is_ok(), "{l}");
        // Twice: the second answer comes from the cache.
        for _ in 0..2 {
            let got = served(&l, &warm);
            assert_eq!(mismatch(result_of(&got).expect("ok"), &want), None, "{l}");
        }
        // Injected wrong result: one digit changed.
        let got = served(&l, &warm);
        let at = got.rfind(|c: char| c.is_ascii_digit()).expect("a digit");
        let mut bad = got.clone().into_bytes();
        bad[at] = if bad[at] == b'9' { b'8' } else { bad[at] + 1 };
        let bad = String::from_utf8(bad).expect("ascii");
        let got = result_of(&bad).expect("still an ok response");
        assert!(mismatch(got, &want).is_some(), "missed tampering: {bad}");
    }
    let err = Response::error(Some(1), vpd_serve::ErrorCode::QueueFull, "full")
        .to_json()
        .to_string();
    assert_eq!(result_of(&err), Err("queue_full".to_owned()));
}

fn matrix(a0: f64) -> String {
    let rows = [
        ("A0", "DSCH", a0),
        ("A1", "DPMIH", 18.81),
        ("A1", "DSCH", 18.51),
        ("A2", "DPMIH", 15.74),
        ("A2", "DSCH", 20.88),
        ("A3@12V", "DSCH", 22.75),
        ("A3@6V", "DSCH", 24.30),
    ];
    Json::obj([
        ("command", Json::from("matrix")),
        (
            "entries",
            Json::array(rows.iter().map(|(a, t, l)| {
                Json::obj([
                    ("architecture", Json::from(*a)),
                    ("topology", Json::from(*t)),
                    ("loss_percent", Json::from(*l)),
                ])
            })),
        ),
    ])
    .to_string()
}

#[test]
fn paper_checks_pass_on_paper_numbers_and_catch_a_wrong_headline() {
    assert!(check_matrix(&matrix(43.31)).is_empty());
    assert!(
        !check_matrix(&matrix(39.0)).is_empty(),
        "A0 under 40% must fail"
    );
    assert!(!check_matrix("not json").is_empty());

    let l = line(1, r#""kind":"analyze","params":{"arch":"a1"}"#);
    let analyze = Oracle::default().result(&l).expect("analyze");
    assert!(check_analyze(&analyze).is_empty(), "{analyze}");
    let inflated = analyze.replacen(
        r#""name":"BGA","power_w":"#,
        r#""name":"BGA","power_w":5"#,
        1,
    );
    assert_ne!(inflated, analyze);
    assert!(
        !check_analyze(&inflated).is_empty(),
        "a 5 W BGA loss must fail"
    );
}

#[test]
fn cli_stdout_must_match_the_setup_pass_byte_for_byte() {
    let (light, _) = cli_commands(1);
    let cmd = &light[0];
    let mut reference = BTreeMap::new();
    reference.insert(cmd.name.clone(), b"{\"x\":1}\n".to_vec());
    assert_eq!(check_stdout(&reference, cmd, b"{\"x\":1}\n"), None);
    assert!(check_stdout(&reference, cmd, b"{\"x\":2}\n").is_some());
    assert!(check_stdout(&reference, cmd, b"{\"x\":1}").is_some());
}
