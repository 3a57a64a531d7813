"""Behaviour-template machinery for the synthetic malware corpus.

A *behaviour* is one concrete malicious capability a package can carry --
"beacon to a C2 server over a raw socket", "steal ``~/.aws/credentials``",
"spawn a hidden reverse shell from ``setup.py``" -- tagged with the paper's
taxonomy label (category + subcategory, Table XII).

Behaviours are defined declaratively as :class:`Behavior` instances holding a
handful of code *template variants*.  Rendering a behaviour picks one variant
and fills its placeholders (function names, hostnames, ports, file paths...)
from seeded pools, so two variants of the same malware family share structure
and tell-tale API calls while differing in identifiers and constants --
exactly the property the paper's clustering + multi-sample prompting relies
on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.categories import TaxonomyLabel, category_of
from repro.utils.seeding import DeterministicRandom
from repro.utils.text import dedent_code

# -- value pools used to fill template placeholders --------------------------

C2_HOSTS = (
    "updates.pythonhosted.cc", "cdn.pypi-mirror.top", "api.telemetry-sync.xyz",
    "files.pkg-install.ru", "static.devops-metrics.pw", "backend.wheel-cache.io",
    "service.pip-analytics.cn", "node1.package-stats.su",
)
RAW_IPS = (
    "45.137.21.9", "185.62.190.11", "193.32.162.74", "91.242.217.33",
    "104.168.45.9", "141.98.6.171",
)
WEBHOOK_URLS = (
    "https://discord.com/api/webhooks/1093372/a8Xk2",
    "https://discord.com/api/webhooks/8827151/QzP0w",
    "https://discordapp.com/api/webhooks/5520013/mB4tS",
)
TELEGRAM_TOKENS = (
    "5912338721:AAH8x1", "6023917455:AAGq2z", "5788102931:AAEw9k",
)
PASTE_URLS = (
    "https://pastebin.com/raw/Xq2LmWp1", "https://paste.ee/r/K93jHq",
    "https://rentry.co/mlwr-stage2/raw",
)
SENSITIVE_PATHS = (
    "~/.aws/credentials", "~/.ssh/id_rsa", "~/.netrc", "~/.config/gcloud/credentials.db",
    "~/.docker/config.json", "~/.npmrc", "~/.pypirc", "~/.gitconfig",
)
BROWSER_PATHS = (
    "AppData/Local/Google/Chrome/User Data/Default/Login Data",
    "AppData/Roaming/Mozilla/Firefox/Profiles",
    ".config/google-chrome/Default/Cookies",
    "AppData/Local/BraveSoftware/Brave-Browser/User Data/Default/Login Data",
)
PORTS = (4444, 1337, 8081, 9001, 6666, 31337, 8443)
FUNC_STEMS = (
    "sync", "update", "init", "check", "load", "refresh", "collect", "process",
    "bootstrap", "configure", "register", "verify", "prepare", "handle",
)
FUNC_SUFFIXES = ("_data", "_cfg", "_env", "_info", "_cache", "_task", "_meta", "", "_payload")
VAR_NAMES = ("result", "payload", "buf", "data", "blob", "resp", "out", "content", "tmp")
ENV_MARKERS = ("PROD", "CI", "RELEASE", "BUILD_ID", "DEPLOY_ENV")


@dataclass
class RenderContext:
    """Concrete values chosen for one rendering of a behaviour."""

    func: str
    var: str
    host: str
    ip: str
    port: int
    url: str
    webhook: str
    telegram_token: str
    paste_url: str
    sensitive_path: str
    browser_path: str
    marker: str

    def as_mapping(self) -> dict[str, str]:
        return {
            "func": self.func,
            "var": self.var,
            "host": self.host,
            "ip": self.ip,
            "port": str(self.port),
            "url": self.url,
            "webhook": self.webhook,
            "telegram_token": self.telegram_token,
            "paste_url": self.paste_url,
            "sensitive_path": self.sensitive_path,
            "browser_path": self.browser_path,
            "marker": self.marker,
        }


def make_context(rng: DeterministicRandom) -> RenderContext:
    """Draw a fresh set of placeholder values."""
    host = rng.choice(C2_HOSTS)
    return RenderContext(
        func=rng.choice(FUNC_STEMS) + rng.choice(FUNC_SUFFIXES),
        var=rng.choice(VAR_NAMES),
        host=host,
        ip=rng.choice(RAW_IPS),
        port=rng.choice(PORTS),
        url=f"https://{host}/api/v{rng.randint(1, 3)}/collect",
        webhook=rng.choice(WEBHOOK_URLS),
        telegram_token=rng.choice(TELEGRAM_TOKENS),
        paste_url=rng.choice(PASTE_URLS),
        sensitive_path=rng.choice(SENSITIVE_PATHS),
        browser_path=rng.choice(BROWSER_PATHS),
        marker=rng.choice(ENV_MARKERS),
    )


@dataclass
class RenderedBehavior:
    """The concrete artefacts one behaviour contributes to a package."""

    key: str
    label: TaxonomyLabel
    imports: list[str] = field(default_factory=list)
    functions: list[str] = field(default_factory=list)
    call: Optional[str] = None
    setup_snippet: Optional[str] = None
    metadata_patch: dict[str, object] = field(default_factory=dict)

    @property
    def code(self) -> str:
        return "\n\n".join(self.functions)


#: A variant is (imports, code-template, call-template-or-None,
#:               setup-template-or-None).
Variant = tuple[Sequence[str], str, Optional[str], Optional[str]]


@dataclass
class Behavior:
    """One malicious capability with several code-template variants."""

    key: str
    subcategory: str
    description: str
    variants: Sequence[Variant] = ()
    metadata_patcher: Optional[Callable[[DeterministicRandom], dict[str, object]]] = None
    weight: float = 1.0

    def __post_init__(self) -> None:
        self.category = category_of(self.subcategory)
        self.label = TaxonomyLabel(self.category, self.subcategory)
        if not self.variants and self.metadata_patcher is None:
            raise ValueError(f"behavior {self.key!r} defines neither code variants nor metadata")

    @property
    def variant_count(self) -> int:
        return len(self.variants)

    def render(self, rng: DeterministicRandom, variant_index: int | None = None) -> RenderedBehavior:
        """Render one concrete instance of this behaviour.

        ``variant_index`` pins the code template; malware families fix it so
        every member of the family shares the same code shape (only
        identifiers and constants differ between members, as with real
        malware re-uploads).
        """
        rendered = RenderedBehavior(key=self.key, label=self.label)
        if self.variants:
            if variant_index is None:
                variant_index = rng.randint(0, len(self.variants) - 1)
            variant = self.variants[variant_index % len(self.variants)]
            imports, code_template, call_template, setup_template = variant
            context = make_context(rng).as_mapping()
            rendered.imports = [imp.format(**context) for imp in imports]
            rendered.functions = [dedent_code(code_template).format(**context).rstrip()]
            if call_template:
                rendered.call = call_template.format(**context)
            if setup_template:
                rendered.setup_snippet = dedent_code(setup_template).format(**context).rstrip()
        if self.metadata_patcher is not None:
            rendered.metadata_patch = self.metadata_patcher(rng)
        return rendered


class BehaviorRegistry:
    """Registry of every behaviour available to the malware generator."""

    def __init__(self) -> None:
        self._behaviors: dict[str, Behavior] = {}

    def register(self, behavior: Behavior) -> Behavior:
        if behavior.key in self._behaviors:
            raise ValueError(f"duplicate behavior key: {behavior.key}")
        self._behaviors[behavior.key] = behavior
        return behavior

    def register_all(self, behaviors: Sequence[Behavior]) -> None:
        for behavior in behaviors:
            self.register(behavior)

    def get(self, key: str) -> Behavior:
        return self._behaviors[key]

    def __contains__(self, key: str) -> bool:
        return key in self._behaviors

    def __len__(self) -> int:
        return len(self._behaviors)

    def all(self) -> list[Behavior]:
        return list(self._behaviors.values())

    def keys(self) -> list[str]:
        return list(self._behaviors.keys())
