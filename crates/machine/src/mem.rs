//! The simulated physical memory image.
//!
//! Data always lives here (the caches are tag-only models); BTM speculative
//! writes are buffered per-CPU and only applied at commit, so the image never
//! contains uncommitted hardware-transactional state.

use crate::Addr;

/// A flat, word-addressed memory image.
#[derive(Clone, Debug)]
pub(crate) struct MemImage {
    words: Vec<u64>,
}

impl MemImage {
    pub fn new(words: u64) -> Self {
        MemImage {
            words: vec![0; usize::try_from(words).expect("memory size fits usize")],
        }
    }

    /// Number of words.
    pub fn len(&self) -> u64 {
        self.words.len() as u64
    }

    fn index(&self, addr: Addr) -> usize {
        let idx = addr.word_index();
        assert!(
            idx < self.len(),
            "simulated address {addr} out of range ({} words)",
            self.len()
        );
        idx as usize
    }

    pub fn read(&self, addr: Addr) -> u64 {
        self.words[self.index(addr)]
    }

    pub fn write(&mut self, addr: Addr, value: u64) {
        let i = self.index(addr);
        self.words[i] = value;
    }

    /// Replaces the whole image, e.g. when rebooting from a crash snapshot.
    pub fn load(&mut self, words: &[u64]) {
        assert_eq!(words.len(), self.words.len(), "image size mismatch on load");
        self.words.copy_from_slice(words);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_round_trip() {
        let mut m = MemImage::new(16);
        let a = Addr::from_word_index(3);
        assert_eq!(m.read(a), 0);
        m.write(a, 42);
        assert_eq!(m.read(a), 42);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        MemImage::new(4).read(Addr::from_word_index(4));
    }
}
