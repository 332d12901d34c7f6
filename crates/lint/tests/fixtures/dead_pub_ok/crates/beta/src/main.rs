fn main() {
    alpha::shared();
    let _ = alpha::make();
}
