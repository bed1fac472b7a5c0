"""Setup shim for legacy editable installs (offline environment)."""
from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description="Reproduction of 'Subjectivity Aware Conversational Search Services' (SACCS, EDBT 2021)",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
)
