"""Every property oracle runs in CI's weekly ``oracles-long`` job.

Tier-1 runs each ``tests/**/test_*_oracle.py`` and
``tests/**/test_*properties.py`` at its written budget; the weekly job
runs them at 10x the examples under a fresh seed.  Its file list in
``.github/workflows/ci.yml`` is written out by hand, so a new oracle or
property file must be added there too.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_oracle_is_in_the_long_job():
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    # The job runs to the next key at its indentation.
    job = re.search(r"^  oracles-long:\n(.*?)(?=^  \S|\Z)", ci,
                    re.MULTILINE | re.DOTALL).group(1)
    listed = set(re.findall(r"tests/\S+\.py", job))
    oracles = {path.relative_to(ROOT).as_posix()
               for pattern in ("test_*_oracle.py", "test_*properties.py")
               for path in (ROOT / "tests").rglob(pattern)}
    assert oracles and sorted(oracles - listed) == []
