import os
import tempfile
from pathlib import Path

# Hypothesis caches constants it mines from the source; keep that cache
# out of the working tree (examples are not stored: database=None)
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY",
                      str(Path(tempfile.gettempdir()) / "telecloning-hypothesis"))
