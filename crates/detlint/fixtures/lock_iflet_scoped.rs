//! Fixture: `lock_iflet_guard.rs` repaired — the value is cloned out of a
//! block that ends the `decoded` guard before `backing` is taken.
use std::sync::{Arc, Mutex};

pub struct Cache {
    backing: Mutex<u64>,
    decoded: Mutex<Option<Arc<u64>>>,
}

impl Cache {
    pub fn hit(&self) -> Option<Arc<u64>> {
        let value = {
            let decoded = self.decoded.plock("decoded");
            decoded.clone()
        };
        if value.is_some() {
            *self.backing.plock("backing") += 1;
        }
        value
    }

    pub fn evict(&self) {
        let mut hits = self.backing.plock("backing");
        *self.decoded.plock("decoded") = None;
        *hits = 0;
    }
}
