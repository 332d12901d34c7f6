#[test]
fn integration_targets_link_the_library_from_outside() {
    alpha::integration_tested();
}
