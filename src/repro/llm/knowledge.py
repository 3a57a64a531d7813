"""The simulated LLM's security knowledge: an indicator catalogue.

A real LLM recognises malicious-code idioms because it has seen them during
pre-training.  The simulated analyst gets the same ability from this
catalogue: each :class:`IndicatorPattern` describes one idiom -- how to spot
it in source text (a regex), what canonical string a YARA rule should carry,
what Semgrep pattern expresses it structurally, which Table II audit category
and Table XII taxonomy subcategory it belongs to, and how *specific* it is
(how unlikely the idiom is to appear in benign code).

Low-specificity indicators (plain ``subprocess`` use, ``os.environ`` access,
``base64`` decoding) are deliberately present: weaker model profiles include
them in rules, which is exactly where false positives come from.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

# Table II audit categories for code.
IOC = "ioc"
FILE_OPERATION = "file"
NETWORK = "network"
ENCRYPTION = "encryption"
PRIVILEGE = "privilege"
ANTI_DEBUG = "anti_debug"

AUDIT_CATEGORIES = (IOC, FILE_OPERATION, NETWORK, ENCRYPTION, PRIVILEGE, ANTI_DEBUG)


@dataclass(frozen=True)
class IndicatorPattern:
    """One recognisable malicious-code idiom."""

    key: str
    audit_category: str
    subcategory: str
    description: str
    pattern: str
    signature: str
    specificity: float
    semgrep_pattern: str | None = None
    regex_signature: str | None = None

    def __post_init__(self) -> None:
        if self.audit_category not in AUDIT_CATEGORIES:
            raise ValueError(f"unknown audit category: {self.audit_category}")
        if not 0.0 <= self.specificity <= 1.0:
            raise ValueError("specificity must be in [0, 1]")
        re.compile(self.pattern)  # fail fast on typos

    @property
    def compiled(self) -> re.Pattern[str]:
        return re.compile(self.pattern)


INDICATOR_CATALOG: tuple[IndicatorPattern, ...] = (
    # -- IOC ---------------------------------------------------------------------
    IndicatorPattern(
        key="ioc_raw_ip_endpoint",
        audit_category=IOC,
        subcategory="C2 Communication",
        description="Hard-coded raw IP address used as a network endpoint",
        pattern=r"[\"'](?:\d{1,3}\.){3}\d{1,3}[\"']",
        signature='"45.137.21.9"',
        regex_signature=r"[\"'](\d{1,3}\.){3}\d{1,3}[\"']",
        specificity=0.92,
        semgrep_pattern=None,
    ),
    IndicatorPattern(
        key="ioc_suspicious_domain",
        audit_category=IOC,
        subcategory="C2 Communication",
        description="Contact with a suspicious distribution / telemetry domain",
        pattern=r"(pythonhosted\.cc|pypi-mirror\.top|telemetry-sync\.xyz|pkg-install\.ru|devops-metrics\.pw|wheel-cache\.io|pip-analytics\.cn|package-stats\.su)",
        signature="pypi-mirror.top",
        regex_signature=r"(pythonhosted\.cc|pypi-mirror\.top|telemetry-sync\.xyz|pkg-install\.ru|devops-metrics\.pw|wheel-cache\.io|pip-analytics\.cn|package-stats\.su)",
        specificity=0.97,
    ),
    IndicatorPattern(
        key="ioc_paste_service",
        audit_category=IOC,
        subcategory="Malicious Downloads",
        description="Fetching content from a paste service",
        pattern=r"(pastebin\.com/raw|paste\.ee/r/|rentry\.co/)",
        signature="pastebin.com/raw",
        specificity=0.9,
    ),
    # -- network -------------------------------------------------------------------
    IndicatorPattern(
        key="net_socket_connect",
        audit_category=NETWORK,
        subcategory="C2 Communication",
        description="Raw TCP socket connection to a remote host",
        pattern=r"socket\.socket\(socket\.AF_INET",
        signature="socket.socket(socket.AF_INET",
        specificity=0.7,
        semgrep_pattern="socket.socket(socket.AF_INET, socket.SOCK_STREAM)",
    ),
    IndicatorPattern(
        key="net_reverse_shell_dup2",
        audit_category=NETWORK,
        subcategory="Backdoor Families",
        description="File-descriptor duplication onto a socket (reverse shell)",
        pattern=r"os\.dup2\(\s*s\.fileno\(\)",
        signature="os.dup2(s.fileno()",
        specificity=0.99,
        semgrep_pattern="os.dup2($S.fileno(), $FD)",
    ),
    IndicatorPattern(
        key="net_discord_webhook",
        audit_category=NETWORK,
        subcategory="Messaging Platform Abuse",
        description="Exfiltration through a Discord webhook",
        pattern=r"discord(?:app)?\.com/api/webhooks",
        signature="discord.com/api/webhooks",
        specificity=0.97,
        semgrep_pattern='requests.post("$URL", ...)',
    ),
    IndicatorPattern(
        key="net_telegram_bot_api",
        audit_category=NETWORK,
        subcategory="Messaging Platform Abuse",
        description="Exfiltration through the Telegram bot API",
        pattern=r"api\.telegram\.org/bot",
        signature="api.telegram.org/bot",
        specificity=0.95,
    ),
    IndicatorPattern(
        key="net_urlretrieve_exec",
        audit_category=NETWORK,
        subcategory="Malicious Downloads",
        description="Downloading a second-stage payload to disk",
        pattern=r"urllib\.request\.urlretrieve\(",
        signature="urllib.request.urlretrieve(",
        specificity=0.75,
        semgrep_pattern="urllib.request.urlretrieve($URL, $PATH)",
    ),
    IndicatorPattern(
        key="net_exec_remote_code",
        audit_category=NETWORK,
        subcategory="Script Injection",
        description="Executing code fetched over the network",
        pattern=r"exec\((?:compile\()?(?:urllib\.request\.urlopen|requests\.get)",
        signature="exec(urllib.request.urlopen(",
        regex_signature=r"exec\((compile\()?(urllib\.request\.urlopen|requests\.get)",
        specificity=0.99,
        semgrep_pattern="exec(urllib.request.urlopen($URL, ...).read())",
    ),
    IndicatorPattern(
        key="net_dns_tunnel",
        audit_category=NETWORK,
        subcategory="DNS/Protocol Abuse",
        description="DNS lookups of encoded subdomains (DNS tunnelling)",
        pattern=r"socket\.gethostbyname\(\s*(?:label|chunks|[\w\.]*\+)",
        signature="socket.gethostbyname(",
        specificity=0.72,
    ),
    IndicatorPattern(
        key="net_udp_exfil",
        audit_category=NETWORK,
        subcategory="Data Exfiltration Channels",
        description="Chunked UDP exfiltration to a fixed address",
        pattern=r"socket\.SOCK_DGRAM",
        signature="socket.SOCK_DGRAM",
        specificity=0.65,
    ),
    IndicatorPattern(
        key="net_http_post_exfil",
        audit_category=NETWORK,
        subcategory="Data Exfiltration Channels",
        description="HTTP POST of collected host data to a remote endpoint",
        pattern=r"requests\.post\(",
        signature="requests.post(",
        specificity=0.45,
        semgrep_pattern="requests.post($URL, ...)",
    ),
    IndicatorPattern(
        key="net_transfer_sh_upload",
        audit_category=NETWORK,
        subcategory="Cloud Service Misuse",
        description="Uploading files to an anonymous sharing service",
        pattern=r"transfer\.sh/",
        signature="transfer.sh/",
        specificity=0.93,
    ),
    IndicatorPattern(
        key="net_hardcoded_aws_key",
        audit_category=NETWORK,
        subcategory="Cloud Service Misuse",
        description="Hard-coded AWS access key (attacker-controlled bucket)",
        pattern=r"AKIA[0-9A-Z]{8,}",
        signature="aws_access_key_id=\"AKIA",
        regex_signature=r"AKIA[0-9A-Z]{8,}",
        specificity=0.96,
    ),
    IndicatorPattern(
        key="net_github_dead_drop",
        audit_category=NETWORK,
        subcategory="Social Media API Exploitation",
        description="Using a social profile as a command dead-drop",
        pattern=r"api\.github\.com/users/.*-sync",
        signature="api.github.com/users/",
        specificity=0.85,
    ),
    # -- file operations ----------------------------------------------------------------
    IndicatorPattern(
        key="file_browser_credentials",
        audit_category=FILE_OPERATION,
        subcategory="Credential Theft",
        description="Reading browser credential / cookie databases",
        pattern=r"(Login Data|Firefox/Profiles|Default/Cookies|Local State)",
        signature="Login Data",
        specificity=0.95,
    ),
    IndicatorPattern(
        key="file_discord_leveldb",
        audit_category=FILE_OPERATION,
        subcategory="Known Trojan Families",
        description="Scraping Discord's LevelDB for authentication tokens",
        pattern=r"Local Storage/leveldb",
        signature="Local Storage/leveldb",
        specificity=0.98,
    ),
    IndicatorPattern(
        key="file_ssh_aws_dotfiles",
        audit_category=FILE_OPERATION,
        subcategory="Configuration File Extraction",
        description="Reading credential dotfiles (.aws, .ssh, .netrc, .pypirc, .npmrc)",
        pattern=r"(\.aws/credentials|\.ssh/id_rsa|\.netrc|\.pypirc|\.npmrc|\.docker/config\.json|\.kube/config)",
        signature=".aws/credentials",
        regex_signature=r"\.(aws/credentials|ssh/id_rsa|netrc|pypirc|npmrc)",
        specificity=0.9,
    ),
    IndicatorPattern(
        key="file_wallet_hunt",
        audit_category=FILE_OPERATION,
        subcategory="Sensitive Data Harvesting",
        description="Searching the filesystem for cryptocurrency wallets",
        pattern=r"(wallet\.dat|exodus\.wallet|\*\.wallet|\.kdbx)",
        signature="wallet.dat",
        specificity=0.95,
    ),
    IndicatorPattern(
        key="file_secret_walk",
        audit_category=FILE_OPERATION,
        subcategory="Sensitive Data Harvesting",
        description="Walking the filesystem collecting keys and env files",
        pattern=r"os\.walk\(os\.path\.expanduser",
        signature="os.walk(os.path.expanduser",
        specificity=0.8,
        semgrep_pattern="os.walk(os.path.expanduser($P))",
    ),
    IndicatorPattern(
        key="file_hosts_tamper",
        audit_category=FILE_OPERATION,
        subcategory="System Configuration Changes",
        description="Appending to the system hosts file to block security sites",
        pattern=r"(/etc/hosts|drivers\\\\etc\\\\hosts)",
        signature="/etc/hosts",
        specificity=0.85,
    ),
    IndicatorPattern(
        key="file_startup_persistence",
        audit_category=FILE_OPERATION,
        subcategory="Persistence Mechanisms",
        description="Copying the payload into an autostart location",
        pattern=r"(Start Menu/Programs/Startup|crontab -|\.bashrc|CurrentVersion\\\\+Run)",
        signature="Start Menu/Programs/Startup",
        regex_signature=r"(Start Menu/Programs/Startup|crontab -|\.bashrc)",
        specificity=0.88,
    ),
    IndicatorPattern(
        key="file_pip_conf_tamper",
        audit_category=FILE_OPERATION,
        subcategory="Configuration Tampering",
        description="Rewriting pip/npm configuration to point at a rogue index",
        pattern=r"(pip\.conf|index-url = |registry=https?://)",
        signature="index-url = ",
        specificity=0.85,
    ),
    IndicatorPattern(
        key="file_ransom_extensions",
        audit_category=FILE_OPERATION,
        subcategory="Crypto Library Exploitation",
        description="Encrypting user documents and deleting the originals",
        pattern=r"\.locked\"",
        signature='.locked"',
        specificity=0.95,
    ),
    IndicatorPattern(
        key="file_generic_remove",
        audit_category=FILE_OPERATION,
        subcategory="Unknown or Undetermined",
        description="File removal (generic; legitimate in cleanup code)",
        pattern=r"os\.remove\(",
        signature="os.remove(",
        specificity=0.2,
        semgrep_pattern="os.remove($PATH)",
    ),
    # -- encryption / obfuscation ------------------------------------------------------
    IndicatorPattern(
        key="enc_exec_b64",
        audit_category=ENCRYPTION,
        subcategory="Code Obfuscation",
        description="Executing a base64-decoded payload",
        pattern=r"exec\((?:compile\()?\s*(?:base64\.b64decode|zlib\.decompress)",
        signature="exec(base64.b64decode(",
        regex_signature=r"exec\((compile\()?(base64\.b64decode|zlib\.decompress)",
        specificity=0.97,
        semgrep_pattern="exec(base64.b64decode($X))",
    ),
    IndicatorPattern(
        key="enc_b64_blob_loader",
        audit_category=ENCRYPTION,
        subcategory="Code Obfuscation",
        description="Large embedded base64 blob compiled and executed",
        pattern=r"exec\(compile\(base64\.b64decode\(_blob\)",
        signature="exec(compile(base64.b64decode(_blob)",
        specificity=0.99,
    ),
    IndicatorPattern(
        key="enc_marshal_loads",
        audit_category=ENCRYPTION,
        subcategory="Code Obfuscation",
        description="Loading marshalled code objects at runtime",
        pattern=r"marshal\.loads\(",
        signature="marshal.loads(",
        specificity=0.9,
    ),
    IndicatorPattern(
        key="enc_chr_join_hiding",
        audit_category=ENCRYPTION,
        subcategory="String/Pattern Hiding",
        description="Assembling strings from character codes",
        pattern=r"join\(\s*chr\(c\)|join\(map\(chr,",
        signature="join(map(chr,",
        regex_signature=r"join\((chr\(|map\(chr,)",
        specificity=0.85,
    ),
    IndicatorPattern(
        key="enc_rot13_decode",
        audit_category=ENCRYPTION,
        subcategory="String/Pattern Hiding",
        description="Decoding rot13/hex-hidden constants",
        pattern=r"codecs\.decode\([^)]*(rot13|hex)",
        signature='codecs.decode(',
        specificity=0.7,
    ),
    IndicatorPattern(
        key="enc_aes_ransom",
        audit_category=ENCRYPTION,
        subcategory="Crypto Library Exploitation",
        description="Bulk AES/Fernet encryption of user files",
        pattern=r"(AES\.new\(|Fernet\(key\)|Fernet\.generate_key\(\))",
        signature="AES.new(",
        specificity=0.8,
    ),
    IndicatorPattern(
        key="enc_b64_generic",
        audit_category=ENCRYPTION,
        subcategory="Code Obfuscation",
        description="base64 decoding (generic; common in benign code)",
        pattern=r"base64\.b64decode\(",
        signature="base64.b64decode(",
        specificity=0.35,
        semgrep_pattern="base64.b64decode($X)",
    ),
    IndicatorPattern(
        key="enc_powershell_encoded",
        audit_category=ENCRYPTION,
        subcategory="Shell Command Execution",
        description="Launching PowerShell with an encoded command",
        pattern=r"powershell -enc",
        signature="powershell -enc",
        specificity=0.97,
    ),
    # -- privilege / execution ------------------------------------------------------------
    IndicatorPattern(
        key="priv_setuid_root",
        audit_category=PRIVILEGE,
        subcategory="Privilege Escalation",
        description="Attempting to switch to uid/gid 0",
        pattern=r"os\.set(uid|gid)\(0\)",
        signature="os.setuid(0)",
        specificity=0.93,
        semgrep_pattern="os.setuid(0)",
    ),
    IndicatorPattern(
        key="priv_sudo_suid_copy",
        audit_category=PRIVILEGE,
        subcategory="Privilege Escalation",
        description="Creating a setuid shell copy via sudo",
        pattern=r"chmod 4755",
        signature="chmod 4755",
        specificity=0.96,
    ),
    IndicatorPattern(
        key="priv_shellexecute_runas",
        audit_category=PRIVILEGE,
        subcategory="Privilege Escalation",
        description="UAC elevation via ShellExecuteW runas",
        pattern=r'ShellExecuteW\(None,\s*"runas"',
        signature='"runas"',
        specificity=0.9,
    ),
    IndicatorPattern(
        key="priv_taskkill_av",
        audit_category=PRIVILEGE,
        subcategory="Process Manipulation",
        description="Killing security products by process name",
        pattern=r"taskkill /F /IM",
        signature="taskkill /F /IM",
        specificity=0.9,
    ),
    IndicatorPattern(
        key="priv_registry_run_key",
        audit_category=PRIVILEGE,
        subcategory="Persistence Mechanisms",
        description="Writing an autostart registry Run key",
        pattern=r"CurrentVersion\\\\+Run",
        signature="CurrentVersion\\\\Run",
        specificity=0.9,
    ),
    IndicatorPattern(
        key="priv_firewall_off",
        audit_category=PRIVILEGE,
        subcategory="System Configuration Changes",
        description="Disabling the host firewall",
        pattern=r"(advfirewall set allprofiles state off|iptables -F)",
        signature="advfirewall set allprofiles state off",
        specificity=0.95,
    ),
    IndicatorPattern(
        key="exec_curl_pipe_sh",
        audit_category=PRIVILEGE,
        subcategory="Shell Command Execution",
        description="curl | sh style remote bootstrap",
        pattern=r"(curl[^\"\n]*\|\s*(sh|bash)|wget -qO-[^\"\n]*\|\s*bash)",
        signature="| sh",
        regex_signature=r"(curl|wget)[^\n]{0,120}\|\s*(sh|bash)",
        specificity=0.95,
        semgrep_pattern='os.system("$CMD")',
    ),
    IndicatorPattern(
        key="exec_os_system",
        audit_category=PRIVILEGE,
        subcategory="Shell Command Execution",
        description="Shell execution through os.system (generic)",
        pattern=r"os\.system\(",
        signature="os.system(",
        specificity=0.5,
        semgrep_pattern="os.system($CMD)",
    ),
    IndicatorPattern(
        key="exec_subprocess_shell_true",
        audit_category=PRIVILEGE,
        subcategory="Shell Command Execution",
        description="Subprocess invocation with shell=True (generic)",
        pattern=r"subprocess\.(run|call|Popen|check_output)\([^)\n]*shell=True",
        signature="shell=True",
        specificity=0.45,
        semgrep_pattern="subprocess.run($CMD, shell=True, ...)",
    ),
    IndicatorPattern(
        key="exec_eval_remote_text",
        audit_category=PRIVILEGE,
        subcategory="Script Injection",
        description="eval of text fetched from the network",
        pattern=r"eval\((?:r\.text|requests\.get|urllib\.request\.urlopen|expression)",
        signature="eval(r.text",
        regex_signature=r"eval\((r\.text|requests\.get|urllib)",
        specificity=0.9,
    ),
    IndicatorPattern(
        key="exec_hidden_window_popen",
        audit_category=PRIVILEGE,
        subcategory="Process Creation",
        description="Spawning a hidden/detached helper process",
        pattern=r"(creationflags=0x08000000|creationflags=134217728)",
        signature="creationflags=0x08000000",
        specificity=0.9,
    ),
    IndicatorPattern(
        key="exec_fork_daemon",
        audit_category=PRIVILEGE,
        subcategory="Process Creation",
        description="Daemonising via fork + setsid",
        pattern=r"os\.fork\(\)\s*==\s*0",
        signature="os.fork()",
        specificity=0.75,
    ),
    IndicatorPattern(
        key="exec_setup_install_hook",
        audit_category=PRIVILEGE,
        subcategory="Installation Hook Abuse",
        description="Custom setuptools install/develop command running extra code",
        pattern=r"class\s+\w+\((?:_?install|develop|build_py|egg_info)\)",
        signature="(install):",
        regex_signature=r"class \w+\((_?install|develop|build_py|egg_info)\)",
        specificity=0.85,
        semgrep_pattern="class $C(install): ...",
    ),
    IndicatorPattern(
        key="exec_ctypes_virtualalloc",
        audit_category=PRIVILEGE,
        subcategory="System Library Abuse",
        description="ctypes shellcode loader (VirtualAlloc/CreateThread)",
        pattern=r"kernel32\.VirtualAlloc",
        signature="kernel32.VirtualAlloc",
        specificity=0.98,
    ),
    IndicatorPattern(
        key="exec_ctypes_libc_system",
        audit_category=PRIVILEGE,
        subcategory="System Library Abuse",
        description="Calling libc system() through ctypes",
        pattern=r"CDLL\(ctypes\.util\.find_library\(\"c\"\)\)",
        signature='find_library("c")',
        specificity=0.85,
    ),
    # -- anti-debug / anti-analysis ----------------------------------------------------------
    IndicatorPattern(
        key="anti_gettrace_exit",
        audit_category=ANTI_DEBUG,
        subcategory="Anti-Analysis Techniques",
        description="Exiting when a tracer/debugger is attached",
        pattern=r"sys\.gettrace\(\)",
        signature="sys.gettrace()",
        specificity=0.85,
        semgrep_pattern="sys.gettrace()",
    ),
    IndicatorPattern(
        key="anti_isdebuggerpresent",
        audit_category=ANTI_DEBUG,
        subcategory="Anti-Analysis Techniques",
        description="IsDebuggerPresent check",
        pattern=r"IsDebuggerPresent\(\)",
        signature="IsDebuggerPresent()",
        specificity=0.95,
    ),
    IndicatorPattern(
        key="anti_vm_mac_prefix",
        audit_category=ANTI_DEBUG,
        subcategory="Sandbox Evasion",
        description="Refusing to run when the MAC prefix belongs to a hypervisor",
        pattern=r"uuid\.getnode\(\)[\s\S]{0,120}(0x000C29|0x080027|vendor_prefixes)",
        signature="uuid.getnode()",
        specificity=0.8,
    ),
    IndicatorPattern(
        key="anti_sandbox_hostname",
        audit_category=ANTI_DEBUG,
        subcategory="Sandbox Evasion",
        description="Hostname / container checks for analysis sandboxes",
        pattern=r"(\"sandbox\"|/\.dockerenv|\.containerenv)",
        signature="/.dockerenv",
        specificity=0.8,
    ),
    IndicatorPattern(
        key="anti_os_exit_guard",
        audit_category=ANTI_DEBUG,
        subcategory="Anti-Analysis Techniques",
        description="Silent os._exit() guards around the payload",
        pattern=r"os\._exit\(0\)",
        signature="os._exit(0)",
        specificity=0.75,
    ),
    # -- generic, low-specificity idioms (false-positive bait for weak profiles) -------------
    IndicatorPattern(
        key="generic_environ_access",
        audit_category=FILE_OPERATION,
        subcategory="Environment Data Stealing",
        description="Access to the process environment (generic)",
        pattern=r"os\.environ",
        signature="os.environ",
        specificity=0.25,
        semgrep_pattern="os.environ",
    ),
    IndicatorPattern(
        key="generic_environ_secret_filter",
        audit_category=FILE_OPERATION,
        subcategory="Environment Data Stealing",
        description="Filtering environment variables for secrets/tokens",
        pattern=r'\("TOKEN", "SECRET", "KEY", "PASS"\)',
        signature='("TOKEN", "SECRET", "KEY", "PASS")',
        specificity=0.93,
    ),
    IndicatorPattern(
        key="generic_getpass_user",
        audit_category=FILE_OPERATION,
        subcategory="Environment Data Stealing",
        description="Collecting username/hostname fingerprints",
        pattern=r"getpass\.getuser\(\)",
        signature="getpass.getuser()",
        specificity=0.55,
    ),
    IndicatorPattern(
        key="generic_requests_get",
        audit_category=NETWORK,
        subcategory="Network Library Misuse",
        description="HTTP GET with the requests library (generic)",
        pattern=r"requests\.get\(",
        signature="requests.get(",
        specificity=0.2,
        semgrep_pattern="requests.get($URL, ...)",
    ),
    IndicatorPattern(
        key="generic_urlopen",
        audit_category=NETWORK,
        subcategory="Network Library Misuse",
        description="urllib.request.urlopen call (generic)",
        pattern=r"urllib\.request\.urlopen\(",
        signature="urllib.request.urlopen(",
        specificity=0.4,
        semgrep_pattern="urllib.request.urlopen($X, ...)",
    ),
    IndicatorPattern(
        key="generic_open_write",
        audit_category=FILE_OPERATION,
        subcategory="Unknown or Undetermined",
        description="Opening files for writing (generic)",
        pattern=r"open\([^)\n]*, \"w\"",
        signature='open(',
        specificity=0.1,
    ),
)


def indicator_by_key(key: str) -> IndicatorPattern:
    for entry in INDICATOR_CATALOG:
        if entry.key == key:
            return entry
    raise KeyError(f"unknown indicator key: {key}")
