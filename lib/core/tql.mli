(** TQL: a concrete syntax for pattern-tree queries.

    The paper expresses queries as pattern trees plus selection conditions
    drawn as figures; TQL is the equivalent text form, used by the [toss]
    command-line tool and handy in tests:

    {v
    MATCH #1:inproceedings(/#2:author, /#3:booktitle)
    WHERE #2.content ~ "Jeffrey D. Ullman"
      AND #3.content isa "database conference"
    SELECT #1
    v}

    - [MATCH] gives the tree: [#<label>] optionally [:tag] (shorthand for
      a [#n.tag = "tag"] conjunct), children parenthesized and prefixed
      with [/] (parent-child) or [//] (ancestor-descendant).
    - [WHERE] (optional) is a boolean combination ([AND], [OR], [NOT],
      parentheses) of atoms over the terms [#n.tag], [#n.content] and
      string literals: [=], [!=], [<=], [>=], [<], [>], [~], [isa],
      [part_of], [instance_of], [subtype_of], [below], [above], and
      [contains(term, "s")].
    - [SELECT #i, #j] (optional) lists the SL labels whose full subtrees
      selection should include.
    - [PROJECT #i, #j] (optional, exclusive with SELECT) turns the query
      into a projection with the given PL.

    Keywords are case-insensitive; labels must be distinct. *)

type target = Select of int list | Project of int list

type t = { pattern : Toss_tax.Pattern.t; target : target }

val parse : string -> (t, string) result

val to_string : t -> string
(** Concrete syntax that reparses to an equivalent query (tag shorthands
    are emitted as explicit WHERE conjuncts). *)
