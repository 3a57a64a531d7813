"""Provider-agnostic LLM interface.

The pipeline only ever talks to :class:`LLMProvider`.  The offline
reproduction wires in :class:`repro.llm.simulated.SimulatedAnalystLLM`; a
real deployment would wire in an API client with the same three methods.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable


@dataclass(frozen=True)
class ChatMessage:
    """One message of a chat-style prompt."""

    role: str
    content: str

    def __post_init__(self) -> None:
        if self.role not in ("system", "user", "assistant"):
            raise ValueError(f"invalid role: {self.role!r}")


@dataclass
class CompletionRequest:
    """A full request to the model: system + user messages and sampling knobs."""

    messages: list[ChatMessage] = field(default_factory=list)
    temperature: float = 0.0
    max_output_tokens: int = 4096
    tag: str = ""

    @property
    def system_text(self) -> str:
        return "\n".join(m.content for m in self.messages if m.role == "system")

    @property
    def user_text(self) -> str:
        return "\n".join(m.content for m in self.messages if m.role == "user")

    @property
    def full_text(self) -> str:
        return "\n".join(m.content for m in self.messages)

    @classmethod
    def from_prompt(cls, system: str, user: str, tag: str = "") -> "CompletionRequest":
        return cls(messages=[ChatMessage("system", system), ChatMessage("user", user)], tag=tag)


@dataclass
class Usage:
    """Token accounting for one completion."""

    prompt_tokens: int = 0
    completion_tokens: int = 0


@dataclass
class LLMResponse:
    """A completion returned by a provider."""

    text: str
    model: str
    usage: Usage = field(default_factory=Usage)
    truncated_prompt: bool = False

    def __bool__(self) -> bool:
        return bool(self.text.strip())


@runtime_checkable
class LLMProvider(Protocol):
    """The protocol every model backend implements."""

    @property
    def model_name(self) -> str:
        """A short model identifier (e.g. ``gpt-4o``)."""
        ...

    @property
    def context_window(self) -> int:
        """Maximum number of prompt tokens the model accepts."""
        ...

    def complete(self, request: CompletionRequest) -> LLMResponse:
        """Produce a completion for the request."""
        ...
