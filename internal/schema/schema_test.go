package schema

import (
	"errors"
	"testing"
)

func TestShorthands(t *testing.T) {
	if s := Text("t"); s.Cols[0].Kind != ColText || s.Cols[0].Name != "t" {
		t.Fatal("Text")
	}
	if s := Tokens("tok"); s.Cols[0].Kind != ColTokens {
		t.Fatal("Tokens")
	}
	if s := Vector("v", 10, true); s.Cols[0].Dim != 10 || !s.Cols[0].Sparse {
		t.Fatal("Vector")
	}
	if s := Scalar("p"); s.Cols[0].Kind != ColScalar || s.Cols[0].Dim != 1 {
		t.Fatal("Scalar")
	}
}

func TestSingle(t *testing.T) {
	s := Scalar("x")
	if _, err := s.Single(); err != nil {
		t.Fatal(err)
	}
	multi := New(Column{Name: "a"}, Column{Name: "b"})
	if _, err := multi.Single(); err == nil {
		t.Fatal("Single on multi-column schema should fail")
	}
	var nilS *Schema
	if _, err := nilS.Single(); err == nil {
		t.Fatal("Single on nil schema should fail")
	}
}

func TestCheckKind(t *testing.T) {
	s := Text("in")
	if err := s.CheckKind("Tokenizer", ColText); err != nil {
		t.Fatal(err)
	}
	err := s.CheckKind("WordNgram", ColTokens)
	if err == nil {
		t.Fatal("kind mismatch must error")
	}
	var me *MismatchError
	if !errors.As(err, &me) {
		t.Fatalf("error type: %T", err)
	}
	if me.Op != "WordNgram" || me.Want != ColTokens || me.Got != ColText {
		t.Fatalf("mismatch error fields: %+v", me)
	}
	if me.Error() == "" {
		t.Fatal("empty error text")
	}
}

func TestString(t *testing.T) {
	s := New(Column{Name: "a", Kind: ColText}, Column{Name: "v", Kind: ColVector, Dim: 4})
	if got := s.String(); got != "a:text,v:vector[4]" {
		t.Fatalf("String=%q", got)
	}
	var nilS *Schema
	if nilS.String() != "<nil>" {
		t.Fatal("nil String")
	}
	if ColInvalid.String() != "invalid" || ColKind(99).String() != "invalid" {
		t.Fatal("kind strings")
	}
}

func TestArity(t *testing.T) {
	var nilS *Schema
	if nilS.Arity() != 0 {
		t.Fatal("nil arity")
	}
	if New().Arity() != 0 {
		t.Fatal("empty arity")
	}
}
