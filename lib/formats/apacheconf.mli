(** Apache [httpd.conf]-style configuration files.

    Syntax: one directive per line ([Name arg1 arg2 ...]), container
    sections [<Name arg> ... </Name>] which may nest, [#] comments.  A
    directive's or a section tag's name ends at the first space or tab.
    The parsed tree is

    {v root > (directive | section | comment | blank)*
       section > (directive | section | comment | blank)* v}

    A section's argument (e.g. the ["*:80"] of [<VirtualHost *:80>]) is
    kept in the [arg] attribute.  A directive's [value] is the raw
    argument text after the name. *)

val parse : string -> (Conftree.Node.t, Parse_error.t) result
(** Fails on unbalanced or mismatched section tags. *)

val serialize : Conftree.Node.t -> (string, string) result
