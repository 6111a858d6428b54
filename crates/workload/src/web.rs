//! The §5.4 web-browsing workload.
//!
//! The paper mirrors CNN's 2014-09-11 home page: 107 objects downloaded by
//! the Android browser over **six parallel (MP)TCP connections** with
//! HTTP/1.1 persistent connections. "Almost all objects are < 256 KB" —
//! which is exactly why eMPTCP never wakes the LTE radio on this workload.
//!
//! The synthetic page preserves those observables: 107 objects, a
//! heavy-tailed size distribution truncated so the overwhelming majority
//! sit under 256 KB, one larger main document first, and a round-robin
//! assignment of objects to connections as slots free up (modelled here as
//! a shared fetch queue).

use emptcp_sim::SimRng;
use serde::{Deserialize, Serialize};

/// The number of objects on the reference page.
pub const CNN_OBJECT_COUNT: usize = 107;
/// The paper's browser opens this many parallel connections.
pub const BROWSER_CONNECTIONS: usize = 6;
/// The upload size of one object request (headers + cookies).
pub const REQUEST_BYTES: u64 = 600;

/// A synthetic web page: an ordered list of object sizes.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WebPage {
    /// Object sizes in bytes, fetch order.
    pub objects: Vec<u64>,
}

impl WebPage {
    /// A CNN-home-page-like object population, deterministic per seed.
    pub fn cnn_like(rng: &mut SimRng) -> WebPage {
        let mut objects = Vec::with_capacity(CNN_OBJECT_COUNT);
        // The main HTML document: ~120 kB.
        objects.push(110_000 + rng.below(30_000));
        while objects.len() < CNN_OBJECT_COUNT {
            // Bounded Pareto body: most objects are small icons/scripts,
            // a handful of images approach (but rarely exceed) 256 kB.
            let size = rng.bounded_pareto(1.05, 15_000.0, 400_000.0) as u64;
            objects.push(size);
        }
        WebPage { objects }
    }

    /// Total page weight in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.objects.iter().sum()
    }
}

/// A shared fetch queue: connections pull the next object when idle,
/// modelling HTTP/1.1 persistent connections without pipelining.
#[derive(Clone, Debug)]
pub struct FetchQueue {
    sizes: Vec<u64>,
    next: usize,
}

impl FetchQueue {
    /// Queue every object of a page.
    pub fn new(page: &WebPage) -> Self {
        FetchQueue {
            sizes: page.objects.clone(),
            next: 0,
        }
    }

    /// The next object to fetch, if any.
    pub fn pop(&mut self) -> Option<u64> {
        let v = self.sizes.get(self.next).copied();
        if v.is_some() {
            self.next += 1;
        }
        v
    }

    /// Objects not yet handed out.
    pub fn remaining(&self) -> usize {
        self.sizes.len() - self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_shape_matches_paper() {
        let mut rng = SimRng::new(42);
        let page = WebPage::cnn_like(&mut rng);
        assert_eq!(page.objects.len(), CNN_OBJECT_COUNT);
        let small = page.objects.iter().filter(|&&s| s < 256 * 1024).count();
        // "Almost all objects in the Web page are small (<256 KB)".
        assert!(
            small as f64 / CNN_OBJECT_COUNT as f64 > 0.9,
            "{small}/{CNN_OBJECT_COUNT} small"
        );
        // A realistic page weight: hundreds of kB to a few MB.
        let total = page.total_bytes();
        assert!(total > 2_000_000 && total < 12_000_000, "total {total}");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = WebPage::cnn_like(&mut SimRng::new(7));
        let b = WebPage::cnn_like(&mut SimRng::new(7));
        assert_eq!(a.objects, b.objects);
        let c = WebPage::cnn_like(&mut SimRng::new(8));
        assert_ne!(a.objects, c.objects);
    }

    #[test]
    fn fetch_queue_hands_out_everything_once() {
        let page = WebPage::cnn_like(&mut SimRng::new(1));
        let mut q = FetchQueue::new(&page);
        let mut total = 0u64;
        let mut count = 0;
        while let Some(size) = q.pop() {
            total += size;
            count += 1;
        }
        assert_eq!(count, CNN_OBJECT_COUNT);
        assert_eq!(total, page.total_bytes());
        assert_eq!(q.remaining(), 0);
        assert_eq!(q.pop(), None);
    }
}
