//! `analyze` argument handling through the shared flag table.

/// `--mix 0.3,x,0.5,0.2` used to be accepted as `0.30/0.50/0.20` (the
/// unparsable component was silently dropped); it is an error, as in
/// `live` and `serve`.
#[test]
fn analyze_rejects_a_malformed_mix_with_exit_code_2() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_analyze"))
        .args(["--mix", "0.3,x,0.5,0.2"])
        .output()
        .expect("spawn analyze");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.starts_with("error: --mix "), "{stderr}");
}
