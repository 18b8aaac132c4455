//! The chat-model boundary.
//!
//! Borges treats the LLM as a black box that maps a message list to a text
//! completion. [`ChatModel`] captures exactly that; the pipeline depends on
//! nothing else. The message shape follows the OpenAI chat API closely
//! enough that a production implementation is a thin HTTP adapter.

use borges_resilience::TransportError;
use borges_types::FaviconHash;
use serde::{Deserialize, Serialize};

/// Message author role.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Role {
    /// System instructions.
    System,
    /// End-user (the pipeline).
    User,
    /// The model.
    Assistant,
}

/// One content part of a message. The classifier prompt attaches the
/// favicon image alongside the text (Listing 3 of the paper); the simulator
/// carries the image as its content hash.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Content {
    /// Plain text.
    Text(String),
    /// An attached image, identified by content hash (standing in for the
    /// base64 payload the real API receives).
    Image {
        /// Content hash of the attached image.
        favicon: FaviconHash,
    },
}

impl Content {
    /// The text of a [`Content::Text`] part, if any.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Content::Text(t) => Some(t),
            Content::Image { .. } => None,
        }
    }
}

/// One chat message: a role plus one or more content parts.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Message {
    /// Author role.
    pub role: Role,
    /// Content parts (usually one text part; classifier messages add an
    /// image part).
    pub parts: Vec<Content>,
}

impl Message {
    /// A plain text message.
    pub fn text(role: Role, text: impl Into<String>) -> Self {
        Message {
            role,
            parts: vec![Content::Text(text.into())],
        }
    }

    /// All text parts concatenated.
    pub fn joined_text(&self) -> String {
        self.parts
            .iter()
            .filter_map(Content::as_text)
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// The first attached image, if any.
    pub fn image(&self) -> Option<FaviconHash> {
        self.parts.iter().find_map(|p| match p {
            Content::Image { favicon } => Some(*favicon),
            Content::Text(_) => None,
        })
    }
}

/// Decoding parameters. The paper pins `temperature = 0`, `top_p = 1` for
/// reproducibility (§4.2); the simulator *requires* that setting and
/// refuses anything else, making the reproducibility contract explicit.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DecodingParams {
    /// Sampling temperature.
    pub temperature: f32,
    /// Nucleus probability mass.
    pub top_p: f32,
}

impl DecodingParams {
    /// The paper's reproducible setting: temperature 0, top-p 1.
    pub const fn deterministic() -> Self {
        DecodingParams {
            temperature: 0.0,
            top_p: 1.0,
        }
    }

    /// `true` for the deterministic setting.
    pub fn is_deterministic(&self) -> bool {
        self.temperature == 0.0 && self.top_p == 1.0
    }
}

impl Default for DecodingParams {
    fn default() -> Self {
        DecodingParams::deterministic()
    }
}

/// A chat completion request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChatRequest {
    /// The conversation so far.
    pub messages: Vec<Message>,
    /// Decoding parameters.
    pub params: DecodingParams,
}

impl ChatRequest {
    /// A single-user-message request with deterministic decoding.
    pub fn user(text: impl Into<String>) -> Self {
        ChatRequest {
            messages: vec![Message::text(Role::User, text)],
            params: DecodingParams::deterministic(),
        }
    }

    /// All user-visible text concatenated (prompt reconstruction for
    /// template-parsing models).
    pub fn full_text(&self) -> String {
        self.messages
            .iter()
            .map(Message::joined_text)
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// The first attached image across all messages.
    pub fn image(&self) -> Option<FaviconHash> {
        self.messages.iter().find_map(Message::image)
    }
}

/// Token accounting for one completion (the billing unit of every hosted
/// chat API — at the paper's scale, thousands of extraction calls, cost
/// is an explicit design constraint: it is why the input dropout filter
/// exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Usage {
    /// Tokens in the prompt.
    pub prompt_tokens: u64,
    /// Tokens in the completion.
    pub completion_tokens: u64,
}

impl Usage {
    /// Total tokens.
    pub fn total(&self) -> u64 {
        self.prompt_tokens + self.completion_tokens
    }

    /// A crude, deterministic token estimate for simulated models
    /// (≈ 1 token per 4 characters, the usual English heuristic).
    pub fn estimate(prompt: &str, completion: &str) -> Self {
        Usage {
            prompt_tokens: (prompt.len() as u64).div_ceil(4),
            completion_tokens: (completion.len() as u64).div_ceil(4),
        }
    }
}

impl std::ops::Add for Usage {
    type Output = Usage;
    fn add(self, rhs: Usage) -> Usage {
        Usage {
            prompt_tokens: self.prompt_tokens + rhs.prompt_tokens,
            completion_tokens: self.completion_tokens + rhs.completion_tokens,
        }
    }
}

impl std::ops::AddAssign for Usage {
    fn add_assign(&mut self, rhs: Usage) {
        *self = *self + rhs;
    }
}

/// GPT-4o-mini list pricing (USD per million tokens) at the paper's
/// snapshot date — used to estimate what a pipeline run would bill.
pub const GPT4O_MINI_INPUT_PER_MTOK: f64 = 0.15;
/// Output-token price (USD per million tokens).
pub const GPT4O_MINI_OUTPUT_PER_MTOK: f64 = 0.60;

/// Estimated cost in USD of `usage` at GPT-4o-mini list prices.
pub fn estimate_cost_usd(usage: Usage) -> f64 {
    usage.prompt_tokens as f64 / 1e6 * GPT4O_MINI_INPUT_PER_MTOK
        + usage.completion_tokens as f64 / 1e6 * GPT4O_MINI_OUTPUT_PER_MTOK
}

/// A chat completion.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChatResponse {
    /// The completion text.
    pub text: String,
    /// Token accounting.
    #[serde(default)]
    pub usage: Usage,
}

/// A model that completes chats. Object-safe so pipelines can hold
/// `Box<dyn ChatModel>`, and `Sync` so one model can serve every
/// extraction worker.
///
/// `complete` is fallible: `Err(`[`TransportError`]`)` means the call never
/// produced a usable completion (timeout, 429/5xx, a reply truncated
/// mid-payload). Semantic mistakes — a model extracting the wrong sibling
/// — are *not* transport errors; those stay inside `Ok` replies exactly as
/// before. [`crate::sim::SimLlm`] itself never fails; faults enter through
/// [`crate::middleware::FlakyModel`] and are absorbed by
/// [`crate::middleware::RetryingModel`].
pub trait ChatModel: Sync {
    /// Produces a completion for `request`, or reports that the transport
    /// failed to deliver one.
    fn complete(&self, request: &ChatRequest) -> Result<ChatResponse, TransportError>;

    /// A short model identifier (for logs and experiment records).
    fn model_id(&self) -> &str;
}

impl<M: ChatModel + ?Sized> ChatModel for &M {
    fn complete(&self, request: &ChatRequest) -> Result<ChatResponse, TransportError> {
        (**self).complete(request)
    }
    fn model_id(&self) -> &str {
        (**self).model_id()
    }
}

impl<M: ChatModel + ?Sized> ChatModel for Box<M> {
    fn complete(&self, request: &ChatRequest) -> Result<ChatResponse, TransportError> {
        (**self).complete(request)
    }
    fn model_id(&self) -> &str {
        (**self).model_id()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_params_are_the_default() {
        assert!(DecodingParams::default().is_deterministic());
        let p = DecodingParams {
            temperature: 0.7,
            top_p: 1.0,
        };
        assert!(!p.is_deterministic());
    }

    #[test]
    fn message_text_helpers() {
        let m = Message {
            role: Role::User,
            parts: vec![
                Content::Text("a".into()),
                Content::Image {
                    favicon: FaviconHash::from_raw(1),
                },
                Content::Text("b".into()),
            ],
        };
        assert_eq!(m.joined_text(), "a\nb");
        assert_eq!(m.image(), Some(FaviconHash::from_raw(1)));
    }

    #[test]
    fn request_full_text_spans_messages() {
        let r = ChatRequest {
            messages: vec![
                Message::text(Role::System, "sys"),
                Message::text(Role::User, "usr"),
            ],
            params: DecodingParams::deterministic(),
        };
        assert_eq!(r.full_text(), "sys\nusr");
        assert!(r.image().is_none());
    }

    #[test]
    fn trait_is_object_safe() {
        struct Echo;
        impl ChatModel for Echo {
            fn complete(&self, request: &ChatRequest) -> Result<ChatResponse, TransportError> {
                Ok(ChatResponse {
                    text: request.full_text(),
                    usage: Usage::default(),
                })
            }
            fn model_id(&self) -> &str {
                "echo"
            }
        }
        let boxed: Box<dyn ChatModel> = Box::new(Echo);
        let resp = boxed.complete(&ChatRequest::user("hello")).unwrap();
        assert_eq!(resp.text, "hello");
        assert_eq!(boxed.model_id(), "echo");
    }
}
