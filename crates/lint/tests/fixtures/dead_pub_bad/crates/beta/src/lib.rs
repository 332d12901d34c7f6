pub fn caller() {
    alpha::used_elsewhere();
}
