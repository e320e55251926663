"""Exit 0 only if a pytest JUnit XML report lists exactly the expected
failing tests.  Usage: python .github/expect_failures.py junit.xml"""
import sys
import xml.etree.ElementTree as ET

# Acceptance criterion 6 clause (a) contradicts the ladder algebra and is
# kept failing on purpose (see README.md).
EXPECTED = {"tests.test_acceptance::test_criterion_6_mandel_q_reproduction"}

cases = list(ET.parse(sys.argv[1]).getroot().iter("testcase"))
failed = {f"{case.get('classname')}::{case.get('name')}" for case in cases
          if case.find("failure") is not None or case.find("error") is not None}
print(f"{len(cases)} test cases, {len(failed)} failed or errored")
for name in sorted(failed ^ EXPECTED):
    print(("unexpected failure: " if name in failed else "expected failure passed: ") + name)
sys.exit(failed != EXPECTED)
