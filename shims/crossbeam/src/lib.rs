//! Offline stand-in for `crossbeam`.
//!
//! Provides `crossbeam::channel`'s MPMC semantics — cloneable, `Sync`
//! senders *and* receivers — on top of a `Mutex<VecDeque>` + `Condvar`.
//! Throughput is adequate for the workspace's channel-ingestion paths; the
//! lock-free performance of real crossbeam is not reproduced.

/// Multi-producer multi-consumer channels.
pub mod channel {
    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex};

    struct Shared<T> {
        queue: Mutex<State<T>>,
        available: Condvar,
    }

    struct State<T> {
        items: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    /// Sending half; cloneable across threads.
    pub struct Sender<T>(Arc<Shared<T>>);

    /// Receiving half; cloneable across threads.
    pub struct Receiver<T>(Arc<Shared<T>>);

    /// Error returned when sending into a channel with no receivers.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error for [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// No message currently queued.
        Empty,
        /// All senders dropped and the queue is drained.
        Disconnected,
    }

    /// Error for [`Receiver::recv`]: all senders dropped, queue drained.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    impl<T> std::fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    impl<T: std::fmt::Debug> std::error::Error for SendError<T> {}

    /// Creates an unbounded MPMC channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            queue: Mutex::new(State {
                items: VecDeque::new(),
                senders: 1,
                receivers: 1,
            }),
            available: Condvar::new(),
        });
        (Sender(shared.clone()), Receiver(shared))
    }

    impl<T> Sender<T> {
        /// Enqueues a message; fails only when every receiver is gone.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut state = self.0.queue.lock().expect("channel mutex");
            if state.receivers == 0 {
                return Err(SendError(value));
            }
            state.items.push_back(value);
            drop(state);
            self.0.available.notify_one();
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.0.queue.lock().expect("channel mutex").senders += 1;
            Self(self.0.clone())
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut state = self.0.queue.lock().expect("channel mutex");
            state.senders -= 1;
            if state.senders == 0 {
                drop(state);
                self.0.available.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Dequeues without blocking.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut state = self.0.queue.lock().expect("channel mutex");
            match state.items.pop_front() {
                Some(v) => Ok(v),
                None if state.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }

        /// Dequeues, blocking until a message or disconnection.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut state = self.0.queue.lock().expect("channel mutex");
            loop {
                if let Some(v) = state.items.pop_front() {
                    return Ok(v);
                }
                if state.senders == 0 {
                    return Err(RecvError);
                }
                state = self.0.available.wait(state).expect("channel mutex");
            }
        }

        /// Non-blocking iterator over currently queued messages.
        pub fn try_iter(&self) -> impl Iterator<Item = T> + '_ {
            std::iter::from_fn(move || self.try_recv().ok())
        }

        /// Number of queued messages.
        pub fn len(&self) -> usize {
            self.0.queue.lock().expect("channel mutex").items.len()
        }

        /// Whether the queue is currently empty.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.0.queue.lock().expect("channel mutex").receivers += 1;
            Self(self.0.clone())
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.0.queue.lock().expect("channel mutex").receivers -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::{unbounded, TryRecvError};

    #[test]
    fn send_and_try_recv() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.try_recv(), Ok(1));
        assert_eq!(rx.try_recv(), Ok(2));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn disconnection_is_observable() {
        let (tx, rx) = unbounded::<u8>();
        drop(tx);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        let (tx2, rx2) = unbounded::<u8>();
        drop(rx2);
        assert!(tx2.send(1).is_err());
    }

    #[test]
    fn cross_thread_fifo_per_sender() {
        let (tx, rx) = unbounded();
        let producer = std::thread::spawn(move || {
            for k in 0..100 {
                tx.send(k).unwrap();
            }
        });
        producer.join().unwrap();
        let got: Vec<i32> = rx.try_iter().collect();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn blocking_recv_wakes() {
        let (tx, rx) = unbounded();
        let consumer = std::thread::spawn(move || rx.recv().unwrap());
        std::thread::sleep(std::time::Duration::from_millis(10));
        tx.send(7u8).unwrap();
        assert_eq!(consumer.join().unwrap(), 7);
    }
}
