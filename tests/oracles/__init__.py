"""Reference routes that the production code is checked against.

Each oracle rebuilds a result the slow, obvious way from public pieces,
so a differential test can demand byte-identical output from the fast
route.
"""
