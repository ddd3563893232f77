"""Shared fixtures: a small co-authorship knowledge base used across suites."""

import pytest

from relgcn.kb import KnowledgeBase, PredicateSchema, Targets


PERSON = "person"
TOPIC = "topic"
UNIVERSITY = "university"


def coauthors(kb: KnowledgeBase, *pairs: str, positive: bool = True) -> Targets:
    """CoAuthor targets of ``kb``, one per "a b" pair of person names."""
    return kb.targets("CoAuthor", [pair.split() for pair in pairs], positive)


@pytest.fixture
def coauthor_kb() -> KnowledgeBase:
    """Four researchers, two universities, three topics.

    ann/bob share U1 and both T1 and T2; cara/dan share nothing with them
    except dan's U1 affiliation.
    """
    kb = KnowledgeBase()
    kb.declare_schema(PredicateSchema("Affiliation", (PERSON, UNIVERSITY)))
    kb.declare_schema(PredicateSchema("ResearchTopic", (PERSON, TOPIC)))
    kb.declare_schema(PredicateSchema("CoAuthor", (PERSON, PERSON)))
    kb.add_fact("Affiliation", ("ann", "U1"))
    kb.add_fact("Affiliation", ("bob", "U1"))
    kb.add_fact("Affiliation", ("cara", "U2"))
    kb.add_fact("Affiliation", ("dan", "U1"))
    kb.add_fact("ResearchTopic", ("ann", "T1"))
    kb.add_fact("ResearchTopic", ("ann", "T2"))
    kb.add_fact("ResearchTopic", ("bob", "T1"))
    kb.add_fact("ResearchTopic", ("bob", "T2"))
    kb.add_fact("ResearchTopic", ("cara", "T3"))
    kb.add_fact("ResearchTopic", ("dan", "T3"))
    return kb


__all__ = ["PERSON", "TOPIC", "UNIVERSITY", "coauthors", "coauthor_kb"]
