//! Reads the byte blocks of `docs/WIRE_PROTOCOL.md`'s "Worked examples"
//! section, so the spec check can compare them with the codec and the
//! fuzzer can seed its corpus with them.

// Shared by the spec check and the fuzzer; each uses part of it.
#![allow(dead_code)]

/// The protocol specification's text.
pub const SPEC: &str = include_str!("../../../../docs/WIRE_PROTOCOL.md");

/// One ```` ```text ```` block of the "Worked examples" section.
#[derive(Debug)]
pub struct WorkedExample {
    /// The `###` heading the block sits under.
    pub title: String,
    /// The block's bytes in order; `None` is a `..` byte whose value the
    /// example leaves open.
    pub bytes: Vec<Option<u8>>,
}

impl WorkedExample {
    /// Whether `actual` has exactly this example's bytes, any value
    /// standing in for a `..`.
    pub fn matches(&self, actual: &[u8]) -> bool {
        self.bytes.len() == actual.len()
            && self
                .bytes
                .iter()
                .zip(actual)
                .all(|(want, got)| want.is_none_or(|b| b == *got))
    }

    /// The example's bytes with every open byte set to zero.
    pub fn concrete(&self) -> Vec<u8> {
        self.bytes.iter().map(|b| b.unwrap_or(0)).collect()
    }
}

/// Every block under "## Worked examples", in document order. Each line of
/// a block contributes its leading two-digit hex (or `..`) tokens; the
/// prose after them annotates the bytes.
pub fn worked_examples(spec: &str) -> Vec<WorkedExample> {
    let mut examples = Vec::new();
    let mut in_section = false;
    let mut title = String::new();
    let mut block: Option<Vec<Option<u8>>> = None;
    for line in spec.lines() {
        if let Some(bytes) = block.as_mut() {
            if line.trim_start().starts_with("```") {
                examples.push(WorkedExample {
                    title: title.clone(),
                    bytes: block.take().unwrap_or_default(),
                });
                continue;
            }
            for token in line.split_whitespace() {
                if token == ".." {
                    bytes.push(None);
                } else if token.len() == 2 {
                    match u8::from_str_radix(token, 16) {
                        Ok(b) => bytes.push(Some(b)),
                        Err(_) => break,
                    }
                } else {
                    break;
                }
            }
        } else if let Some(heading) = line.strip_prefix("## ") {
            in_section = heading.trim() == "Worked examples";
        } else if let Some(heading) = line.strip_prefix("### ") {
            title = heading.trim().to_string();
        } else if in_section && line.trim() == "```text" {
            block = Some(Vec::new());
        }
    }
    examples
}
