//! Fixture: the guard temporary of an `if let` scrutinee lives until the end
//! of the whole `if let`, so `hit` takes `backing` with `decoded` still held —
//! and `evict` takes the two in the opposite order.
use std::sync::{Arc, Mutex};

pub struct Cache {
    backing: Mutex<u64>,
    decoded: Mutex<Option<Arc<u64>>>,
}

impl Cache {
    pub fn hit(&self) -> Option<Arc<u64>> {
        if let Some(value) = self.decoded.plock("decoded").as_ref() {
            *self.backing.plock("backing") += 1;
            return Some(Arc::clone(value));
        }
        None
    }

    pub fn evict(&self) {
        let mut hits = self.backing.plock("backing");
        *self.decoded.plock("decoded") = None;
        *hits = 0;
    }
}
