"""The Facebook download script, run offline on ``file://`` URLs."""

import os
import subprocess
import sys
from pathlib import Path

import polyanet
from polyanet.graph import generate_barabasi_albert, load_network, save_network

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "fetch_facebook_network.py"


def fetch(source, out):
    src = str(Path(polyanet.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, str(SCRIPT), "--url", source.as_uri(), "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=120)


def test_fetch_writes_a_parsable_download_in_matrix_format(tmp_path):
    """An edge list with a comment and a second component is rewritten as
    its largest component, in matrix format."""
    net = generate_barabasi_albert(30, 2, seed=5)
    source = save_network(net, tmp_path / "download.txt", "edges")
    source.write_text("# group interactions\n" + source.read_text() + "31 32\n")
    out = tmp_path / "facebook.adj"
    run = fetch(source, out)
    assert run.returncode == 0, run.stderr
    assert f"wrote 30 nodes, {net.edge_count} edges to {out}" in run.stdout
    assert out.read_text().splitlines()[0] == "30"
    assert load_network(out).edges() == net.edges()


def test_fetch_keeps_unparsable_bytes_as_raw(tmp_path):
    raw = b"<html>\xff\xfe moved</html>\n"
    source = tmp_path / "download.html"
    source.write_bytes(raw)
    out = tmp_path / "facebook.adj"
    run = fetch(source, out)
    assert run.returncode == 1
    assert "could not parse the download" in run.stdout
    assert not out.exists()
    assert (tmp_path / "facebook.adj.raw").read_bytes() == raw
