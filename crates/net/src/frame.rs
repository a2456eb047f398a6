//! 802.15.4-style framing and fragmentation.

use crate::addr::NodeAddr;

/// Maximum physical-layer frame size for IEEE 802.15.4.
pub const MAX_FRAME_SIZE: usize = 127;

/// Bytes of header carried in every frame — the concrete layout of
/// [`Frame::to_bytes`]: a flags/version byte, source/destination short
/// addresses (2 bytes each), the 4-byte message id, the fragment index and
/// the fragment count (1 byte each).
pub const FRAME_HEADER_SIZE: usize = 11;

/// Value of the flags/version byte every well-formed frame starts with.
pub const FRAME_FLAGS_V1: u8 = 0x01;

/// Maximum payload bytes per frame after the header.
pub const MAX_FRAME_PAYLOAD: usize = MAX_FRAME_SIZE - FRAME_HEADER_SIZE;

/// Maximum fragments one message may span: the fragment count travels in a
/// one-byte header field, so 255 is the largest representable count.
pub const MAX_FRAGMENTS: usize = u8::MAX as usize;

/// Largest message this link layer can carry ([`MAX_FRAGMENTS`] full
/// frames). Anything bigger is rejected up front by [`fragment`] with
/// [`FrameError::MessageTooLarge`] instead of overflowing the header
/// mid-transfer.
pub const MAX_MESSAGE_SIZE: usize = MAX_FRAGMENTS * MAX_FRAME_PAYLOAD;

/// Errors produced by fragmentation / reassembly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// A frame's payload exceeded the 802.15.4 MTU.
    PayloadTooLarge {
        /// Offending payload size.
        size: usize,
    },
    /// Reassembly was given no frames.
    Empty,
    /// Frames from different messages were mixed.
    MixedMessages,
    /// A fragment index was missing or duplicated.
    MissingFragment {
        /// The expected fragment index.
        index: u16,
    },
    /// The declared fragment count disagrees with the frames supplied.
    CountMismatch {
        /// Count declared in the frames.
        declared: u16,
        /// Number of frames supplied.
        got: usize,
    },
    /// A fragment index or count does not fit the one-byte header field —
    /// the message is too large for this link layer (≥ 256 fragments).
    HeaderOverflow {
        /// The offending fragment index.
        index: u16,
        /// The offending fragment count.
        count: u16,
    },
    /// The message exceeds [`MAX_MESSAGE_SIZE`] and can never be carried by
    /// this link layer; rejected before any frame is built or transmitted.
    MessageTooLarge {
        /// The offending message size in bytes.
        size: usize,
        /// The largest message the link layer carries.
        max: usize,
    },
    /// Frame bytes did not parse: too short, or an unknown flags byte.
    BadHeader,
}

impl core::fmt::Display for FrameError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FrameError::PayloadTooLarge { size } => {
                write!(f, "payload of {size} bytes exceeds the frame MTU")
            }
            FrameError::Empty => write!(f, "no frames to reassemble"),
            FrameError::MixedMessages => write!(f, "frames belong to different messages"),
            FrameError::MissingFragment { index } => write!(f, "fragment {index} is missing"),
            FrameError::CountMismatch { declared, got } => {
                write!(f, "expected {declared} fragments, got {got}")
            }
            FrameError::HeaderOverflow { index, count } => {
                write!(
                    f,
                    "fragment {index}/{count} does not fit the one-byte header field"
                )
            }
            FrameError::MessageTooLarge { size, max } => {
                write!(f, "message of {size} bytes exceeds the {max}-byte limit")
            }
            FrameError::BadHeader => write!(f, "frame header did not parse"),
        }
    }
}

impl std::error::Error for FrameError {}

/// One link-layer frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Sender's address.
    pub source: NodeAddr,
    /// Receiver's address.
    pub destination: NodeAddr,
    /// Message identifier shared by all fragments of one message.
    pub message_id: u32,
    /// Fragment index within the message (0-based).
    pub fragment_index: u16,
    /// Total number of fragments in the message.
    pub fragment_count: u16,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

impl Frame {
    /// Total on-air size of this frame in bytes (header + payload).
    pub fn wire_size(&self) -> usize {
        FRAME_HEADER_SIZE + self.payload.len()
    }

    /// Validates the frame against the MTU.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::PayloadTooLarge`] when the payload exceeds
    /// [`MAX_FRAME_PAYLOAD`].
    pub fn validate(&self) -> Result<(), FrameError> {
        if self.payload.len() > MAX_FRAME_PAYLOAD {
            return Err(FrameError::PayloadTooLarge {
                size: self.payload.len(),
            });
        }
        Ok(())
    }

    /// Serializes the frame to the bytes that actually go on the air:
    /// the [`FRAME_HEADER_SIZE`]-byte header followed by the payload. The
    /// result is always [`Frame::wire_size`] bytes.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::PayloadTooLarge`] past the MTU and
    /// [`FrameError::HeaderOverflow`] when the fragment index or count
    /// does not fit the one-byte header field.
    pub fn to_bytes(&self) -> Result<Vec<u8>, FrameError> {
        self.validate()?;
        if self.fragment_index > u16::from(u8::MAX) || self.fragment_count > u16::from(u8::MAX) {
            return Err(FrameError::HeaderOverflow {
                index: self.fragment_index,
                count: self.fragment_count,
            });
        }
        let mut bytes = Vec::with_capacity(FRAME_HEADER_SIZE + self.payload.len());
        bytes.push(FRAME_FLAGS_V1);
        bytes.extend_from_slice(&self.source.value().to_be_bytes());
        bytes.extend_from_slice(&self.destination.value().to_be_bytes());
        bytes.extend_from_slice(&self.message_id.to_be_bytes());
        bytes.push(self.fragment_index as u8);
        bytes.push(self.fragment_count as u8);
        bytes.extend_from_slice(&self.payload);
        Ok(bytes)
    }

    /// Parses a frame from its on-air byte form.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::BadHeader`] when the buffer is shorter than
    /// the header or carries unknown flags, and
    /// [`FrameError::PayloadTooLarge`] past the MTU.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, FrameError> {
        if bytes.len() < FRAME_HEADER_SIZE || bytes[0] != FRAME_FLAGS_V1 {
            return Err(FrameError::BadHeader);
        }
        let frame = Frame {
            source: NodeAddr::new(u16::from_be_bytes([bytes[1], bytes[2]])),
            destination: NodeAddr::new(u16::from_be_bytes([bytes[3], bytes[4]])),
            message_id: u32::from_be_bytes([bytes[5], bytes[6], bytes[7], bytes[8]]),
            fragment_index: u16::from(bytes[9]),
            fragment_count: u16::from(bytes[10]),
            payload: bytes[FRAME_HEADER_SIZE..].to_vec(),
        };
        frame.validate()?;
        Ok(frame)
    }
}

/// Splits a message into MTU-sized frames.
///
/// A zero-length message still produces one (empty) frame so that the
/// receiver observes the message at all.
///
/// # Errors
///
/// Returns [`FrameError::MessageTooLarge`] for messages past
/// [`MAX_MESSAGE_SIZE`] — the fragment count would not fit its one-byte
/// header field, so the message is rejected whole before any frame is
/// built.
pub fn fragment(
    source: NodeAddr,
    destination: NodeAddr,
    message_id: u32,
    message: &[u8],
) -> Result<Vec<Frame>, FrameError> {
    if message.len() > MAX_MESSAGE_SIZE {
        return Err(FrameError::MessageTooLarge {
            size: message.len(),
            max: MAX_MESSAGE_SIZE,
        });
    }
    let chunks: Vec<&[u8]> = if message.is_empty() {
        vec![&[]]
    } else {
        message.chunks(MAX_FRAME_PAYLOAD).collect()
    };
    let count = chunks.len() as u16;
    Ok(chunks
        .into_iter()
        .enumerate()
        .map(|(index, chunk)| Frame {
            source,
            destination,
            message_id,
            fragment_index: index as u16,
            fragment_count: count,
            payload: chunk.to_vec(),
        })
        .collect())
}

/// Reassembles a message from its frames (any order).
///
/// # Errors
///
/// Returns a [`FrameError`] when frames are missing, duplicated, mixed
/// between messages, or inconsistent about the fragment count.
pub fn reassemble(frames: &[Frame]) -> Result<Vec<u8>, FrameError> {
    let Some(first) = frames.first() else {
        return Err(FrameError::Empty);
    };
    let declared = first.fragment_count;
    if frames
        .iter()
        .any(|f| f.message_id != first.message_id || f.fragment_count != declared)
    {
        return Err(FrameError::MixedMessages);
    }
    if frames.len() != declared as usize {
        return Err(FrameError::CountMismatch {
            declared,
            got: frames.len(),
        });
    }
    let mut ordered: Vec<Option<&Frame>> = vec![None; declared as usize];
    for frame in frames {
        let slot =
            ordered
                .get_mut(frame.fragment_index as usize)
                .ok_or(FrameError::MissingFragment {
                    index: frame.fragment_index,
                })?;
        if slot.is_some() {
            return Err(FrameError::MissingFragment {
                index: frame.fragment_index,
            });
        }
        *slot = Some(frame);
    }
    let mut message = Vec::new();
    for (index, slot) in ordered.iter().enumerate() {
        let frame = slot.ok_or(FrameError::MissingFragment {
            index: index as u16,
        })?;
        message.extend_from_slice(&frame.payload);
    }
    Ok(message)
}

/// Total bytes that go on the air for a message of `len` bytes (headers
/// included), without building the frames.
pub fn wire_bytes_for_message(len: usize) -> usize {
    let fragments = if len == 0 {
        1
    } else {
        len.div_ceil(MAX_FRAME_PAYLOAD)
    };
    len + fragments * FRAME_HEADER_SIZE
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test shorthand: fragment between two short addresses, unwrapped.
    fn frag(source: u16, destination: u16, message_id: u32, message: &[u8]) -> Vec<Frame> {
        fragment(
            NodeAddr::new(source),
            NodeAddr::new(destination),
            message_id,
            message,
        )
        .unwrap()
    }

    #[test]
    fn constants_are_consistent() {
        assert_eq!(MAX_FRAME_PAYLOAD + FRAME_HEADER_SIZE, MAX_FRAME_SIZE);
        assert_eq!(MAX_FRAME_SIZE, 127);
        assert_eq!(MAX_MESSAGE_SIZE, MAX_FRAGMENTS * MAX_FRAME_PAYLOAD);
    }

    #[test]
    fn oversized_message_is_rejected_up_front() {
        // The largest valid message fragments into exactly MAX_FRAGMENTS
        // frames; one more byte is refused whole.
        let largest = vec![1u8; MAX_MESSAGE_SIZE];
        let frames = frag(1, 2, 7, &largest);
        assert_eq!(frames.len(), MAX_FRAGMENTS);
        assert!(frames.iter().all(|f| f.to_bytes().is_ok()));
        assert_eq!(reassemble(&frames).unwrap(), largest);

        let oversized = vec![1u8; MAX_MESSAGE_SIZE + 1];
        assert_eq!(
            fragment(NodeAddr::new(1), NodeAddr::new(2), 7, &oversized),
            Err(FrameError::MessageTooLarge {
                size: MAX_MESSAGE_SIZE + 1,
                max: MAX_MESSAGE_SIZE,
            })
        );
    }

    #[test]
    fn small_message_is_one_frame() {
        let frames = frag(1, 2, 7, b"hello");
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].fragment_count, 1);
        assert_eq!(frames[0].payload, b"hello");
        assert_eq!(frames[0].wire_size(), 5 + FRAME_HEADER_SIZE);
        assert!(frames[0].validate().is_ok());
        assert_eq!(reassemble(&frames).unwrap(), b"hello");
    }

    #[test]
    fn empty_message_still_produces_a_frame() {
        let frames = frag(1, 2, 7, b"");
        assert_eq!(frames.len(), 1);
        assert!(frames[0].payload.is_empty());
        assert_eq!(reassemble(&frames).unwrap(), Vec::<u8>::new());
        assert_eq!(wire_bytes_for_message(0), FRAME_HEADER_SIZE);
    }

    #[test]
    fn large_message_fragments_and_reassembles() {
        let message: Vec<u8> = (0..1000u16).map(|i| i as u8).collect();
        let frames = frag(3, 4, 42, &message);
        assert_eq!(frames.len(), message.len().div_ceil(MAX_FRAME_PAYLOAD));
        assert!(frames.iter().all(|f| f.validate().is_ok()));
        assert!(frames
            .iter()
            .all(|f| f.fragment_count as usize == frames.len()));
        assert_eq!(reassemble(&frames).unwrap(), message);
        // Wire byte helper agrees with the actual frames.
        let actual: usize = frames.iter().map(|f| f.wire_size()).sum();
        assert_eq!(wire_bytes_for_message(message.len()), actual);
    }

    #[test]
    fn reassembly_is_order_independent() {
        let message = vec![9u8; 300];
        let mut frames = frag(1, 2, 1, &message);
        frames.reverse();
        assert_eq!(reassemble(&frames).unwrap(), message);
    }

    #[test]
    fn reassembly_detects_missing_and_duplicate_fragments() {
        let message = vec![1u8; 400];
        let frames = frag(1, 2, 1, &message);
        assert!(frames.len() >= 3);

        let missing: Vec<Frame> = frames[1..].to_vec();
        assert!(matches!(
            reassemble(&missing),
            Err(FrameError::CountMismatch { .. })
        ));

        let mut duplicated = frames.clone();
        duplicated[1] = duplicated[0].clone();
        assert!(matches!(
            reassemble(&duplicated),
            Err(FrameError::MissingFragment { .. })
        ));
    }

    #[test]
    fn reassembly_rejects_mixed_messages_and_empty_input() {
        let a = frag(1, 2, 1, b"aaaa");
        let b = frag(1, 2, 2, b"bbbb");
        let mixed = vec![a[0].clone(), b[0].clone()];
        assert!(matches!(reassemble(&mixed), Err(FrameError::MixedMessages)));
        assert_eq!(reassemble(&[]), Err(FrameError::Empty));
    }

    #[test]
    fn oversized_frame_fails_validation() {
        let frame = Frame {
            source: NodeAddr::new(1),
            destination: NodeAddr::new(2),
            message_id: 0,
            fragment_index: 0,
            fragment_count: 1,
            payload: vec![0u8; MAX_FRAME_PAYLOAD + 1],
        };
        assert!(matches!(
            frame.validate(),
            Err(FrameError::PayloadTooLarge { .. })
        ));
    }

    #[test]
    fn byte_form_round_trips() {
        let message: Vec<u8> = (0..500u16).map(|i| (i % 251) as u8).collect();
        for frame in frag(0xBEEF, 0x0042, 0xDEAD_BEEF, &message) {
            let bytes = frame.to_bytes().unwrap();
            assert_eq!(bytes.len(), frame.wire_size());
            assert_eq!(bytes[0], FRAME_FLAGS_V1);
            assert_eq!(Frame::from_bytes(&bytes).unwrap(), frame);
        }
    }

    #[test]
    fn byte_form_rejects_overflow_and_bad_headers() {
        let mut frame = frag(1, 2, 7, b"x").remove(0);
        frame.fragment_index = 300;
        assert!(matches!(
            frame.to_bytes(),
            Err(FrameError::HeaderOverflow { index: 300, .. })
        ));

        assert_eq!(Frame::from_bytes(&[0u8; 5]), Err(FrameError::BadHeader));
        let mut wrong_flags = frag(1, 2, 7, b"x").remove(0).to_bytes().unwrap();
        wrong_flags[0] = 0x7f;
        assert_eq!(Frame::from_bytes(&wrong_flags), Err(FrameError::BadHeader));
        let oversized = [&[FRAME_FLAGS_V1; 1][..], &[0u8; 200][..]].concat();
        assert!(matches!(
            Frame::from_bytes(&oversized),
            Err(FrameError::PayloadTooLarge { .. })
        ));
    }

    #[test]
    fn error_display() {
        let errors = vec![
            FrameError::PayloadTooLarge { size: 200 },
            FrameError::Empty,
            FrameError::MixedMessages,
            FrameError::MissingFragment { index: 3 },
            FrameError::CountMismatch {
                declared: 4,
                got: 2,
            },
            FrameError::HeaderOverflow {
                index: 256,
                count: 300,
            },
            FrameError::MessageTooLarge {
                size: MAX_MESSAGE_SIZE + 1,
                max: MAX_MESSAGE_SIZE,
            },
            FrameError::BadHeader,
        ];
        for error in errors {
            assert!(!format!("{error}").is_empty());
        }
    }
}
