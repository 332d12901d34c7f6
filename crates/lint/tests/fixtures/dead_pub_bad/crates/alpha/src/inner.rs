pub struct Hidden;
