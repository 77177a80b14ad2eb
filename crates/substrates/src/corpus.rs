//! The Word Count input corpus.
//!
//! The paper "made a very large word file by concatenating the text version
//! of Alice's Adventures in Wonderland repeatedly for the duration of our
//! experiments". We embed an excerpt of the (public-domain) text and cycle
//! it forever; what matters to the scheduler is the word-frequency skew
//! that fields grouping turns into per-task load imbalance, which the
//! excerpt preserves.

/// An excerpt from *Alice's Adventures in Wonderland* (Lewis Carroll,
/// 1865; public domain).
pub const ALICE_EXCERPT: &str = "\
Alice was beginning to get very tired of sitting by her sister on the bank
and of having nothing to do once or twice she had peeped into the book
her sister was reading but it had no pictures or conversations in it
and what is the use of a book thought Alice without pictures or conversations
So she was considering in her own mind as well as she could
for the hot day made her feel very sleepy and stupid
whether the pleasure of making a daisy chain
would be worth the trouble of getting up and picking the daisies
when suddenly a White Rabbit with pink eyes ran close by her
There was nothing so very remarkable in that
nor did Alice think it so very much out of the way
to hear the Rabbit say to itself Oh dear Oh dear I shall be late
when she thought it over afterwards
it occurred to her that she ought to have wondered at this
but at the time it all seemed quite natural
but when the Rabbit actually took a watch out of its waistcoat pocket
and looked at it and then hurried on
Alice started to her feet
for it flashed across her mind that she had never before seen
a rabbit with either a waistcoat pocket or a watch to take out of it
and burning with curiosity she ran across the field after it
and fortunately was just in time to see it pop down a large rabbit hole
under the hedge
In another moment down went Alice after it
never once considering how in the world she was to get out again
The rabbit hole went straight on like a tunnel for some way
and then dipped suddenly down
so suddenly that Alice had not a moment to think about stopping herself
before she found herself falling down a very deep well
Either the well was very deep or she fell very slowly
for she had plenty of time as she went down to look about her
and to wonder what was going to happen next
First she tried to look down and make out what she was coming to
but it was too dark to see anything
then she looked at the sides of the well
and noticed that they were filled with cupboards and book shelves
here and there she saw maps and pictures hung upon pegs
She took down a jar from one of the shelves as she passed
it was labelled ORANGE MARMALADE
but to her great disappointment it was empty";

/// Cycles the lines of a text forever, like the paper's endlessly
/// concatenated word file.
///
/// # Example
///
/// ```
/// use tstorm_substrates::CorpusReader;
///
/// let mut reader = CorpusReader::alice();
/// let first = reader.next_line().to_owned();
/// for _ in 0..10_000 { reader.next_line(); }
/// assert!(!first.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct CorpusReader {
    lines: Vec<String>,
    next: usize,
    produced: u64,
}

impl CorpusReader {
    /// Creates a reader over the embedded *Alice* excerpt.
    #[must_use]
    pub fn alice() -> Self {
        Self::from_text(ALICE_EXCERPT)
    }

    /// Creates a reader over arbitrary text (one line per `\n`).
    ///
    /// # Panics
    ///
    /// Panics if the text contains no non-empty lines.
    #[must_use]
    pub fn from_text(text: &str) -> Self {
        let lines: Vec<String> = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty())
            .map(str::to_owned)
            .collect();
        assert!(!lines.is_empty(), "corpus must contain at least one line");
        Self {
            lines,
            next: 0,
            produced: 0,
        }
    }

    /// Returns the next line, cycling back to the first after the last.
    pub fn next_line(&mut self) -> &str {
        let line = &self.lines[self.next];
        self.next = (self.next + 1) % self.lines.len();
        self.produced += 1;
        line
    }

    /// Total lines produced so far.
    #[must_use]
    pub fn produced(&self) -> u64 {
        self.produced
    }

    /// Ground-truth word counts for `n` lines starting from the beginning
    /// of the cycle — used by integration tests to verify the Word Count
    /// topology end to end. Words are split on whitespace and lowercased,
    /// matching the SplitSentence bolt.
    #[must_use]
    pub fn expected_word_counts(&self, n_lines: u64) -> std::collections::HashMap<String, u64> {
        let mut counts = std::collections::HashMap::new();
        for i in 0..n_lines {
            let line = &self.lines[(i % self.lines.len() as u64) as usize];
            for w in line.split_whitespace() {
                *counts.entry(w.to_lowercase()).or_insert(0) += 1;
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alice_has_many_lines() {
        let mut r = CorpusReader::alice();
        let first: std::collections::HashSet<String> =
            (0..30).map(|_| r.next_line().to_owned()).collect();
        assert_eq!(first.len(), 30, "the first 30 lines are distinct");
    }

    #[test]
    fn cycles_forever() {
        let mut r = CorpusReader::from_text("a b\nc d\n");
        assert_eq!(r.next_line(), "a b");
        assert_eq!(r.next_line(), "c d");
        assert_eq!(r.next_line(), "a b");
        assert_eq!(r.produced(), 3);
    }

    #[test]
    fn skips_blank_lines() {
        let mut r = CorpusReader::from_text("a\n\n  \nb\n");
        assert_eq!(r.next_line(), "a");
        assert_eq!(r.next_line(), "b");
        assert_eq!(r.next_line(), "a");
    }

    #[test]
    #[should_panic(expected = "at least one line")]
    fn empty_corpus_panics() {
        let _ = CorpusReader::from_text("\n  \n");
    }

    #[test]
    fn expected_counts_match_manual() {
        let r = CorpusReader::from_text("the cat\nthe dog\n");
        let counts = r.expected_word_counts(3); // the cat / the dog / the cat
        assert_eq!(counts["the"], 3);
        assert_eq!(counts["cat"], 2);
        assert_eq!(counts["dog"], 1);
    }

    #[test]
    fn word_frequencies_are_skewed() {
        // Fields grouping load imbalance depends on skew: "the"/"she"/"it"
        // must dominate the tail.
        let r = CorpusReader::alice();
        let counts = r.expected_word_counts(r.lines.len() as u64);
        let max = counts.values().copied().max().unwrap();
        let singletons = counts.values().filter(|&&c| c == 1).count();
        assert!(max >= 10, "most frequent word only {max}");
        assert!(singletons > 50, "only {singletons} singleton words");
    }
}
