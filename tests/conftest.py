import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from electre_score.files import load_model, load_performances_csv, load_target_csv
from electre_score.model import DeckOfCards

DATA = Path(__file__).resolve().parent.parent / "data"


@pytest.fixture(scope="session")
def hotel():
    """The bundled hotel example, read from its files in data/."""
    model = load_model(DATA / "hotel_model.json")
    return {
        "criteria": model.criteria,
        "table": load_performances_csv(DATA / "hotel_performances.csv", model.criteria),
        "refs": model.refs,
        "target": load_target_csv(DATA / "hotel_target_relations.csv"),
    }


@pytest.fixture(scope="session")
def hotel_deck():
    """The deck-of-cards block of data/hotel_model.json."""
    block = json.loads((DATA / "hotel_model.json").read_text())["deck_of_cards"]
    return DeckOfCards(tuple(block["blank_cards"]), tuple(block["anchors"]))


@pytest.fixture(scope="session")
def hotel_vectors(hotel):
    vectors = {a: hotel["table"].vector(a) for a in hotel["table"].actions}
    for name, _, _, vec in hotel["refs"].flat_profiles():
        vectors[name] = vec
    return vectors


@pytest.fixture(scope="session")
def data_dir():
    return DATA
