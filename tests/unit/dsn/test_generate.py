"""What the canvas calls declare on a DSN program: the P2 canvas, drawn
through them, renders byte-for-byte as ``goldens/p2-torrential-rain.dsn``
(a service per node, a channel per data edge, a control per control
edge), and the golden parses back to the same text.
"""

from tests.unit.dsn.test_check import row
from tests.unit.dsn.test_goldens import golden

P2 = "p2-torrential-rain"


class TestTranslation:
    test_every_node_becomes_a_service = golden(P2)
    test_roles_and_kinds = golden(P2)
    test_edges_become_channels_and_controls = golden(P2)
    test_initial_activation_in_params = golden(P2)
    test_operator_params_embedded = golden(P2)
    test_full_text_round_trip = golden(P2)


class TestSoundnessGate:
    test_invalid_flow_refused = row("unknown-attribute")
